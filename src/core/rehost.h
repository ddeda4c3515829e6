#pragma once

// Greedy re-hosting: the one copy-placement move shared by placement
// repair (core/repair, phase 1) and the anytime solver's degraded fallback
// (core/approx). Both grow a chunk's copy set one node at a time, each step
// taking the candidate with the largest net hop gain
//
//     gain(v) = −nearest[v] + Σ_j max(0, nearest[j] − d(v, j))
//
// where nearest[j] is j's hop distance to the closest existing copy: the
// access-delay savings minus a λ = 1 dissemination penalty for shipping the
// chunk to v (the "Hopc" baseline's move; the penalty keeps the set from
// degenerating to "cache everywhere"). Ties go to the smallest node id.
// Each caller keeps its own loop and stop rule.
//
// Ball pruning. Only clients with d(v, j) < nearest[j] contribute, and
// nearest is 1-Lipschitz along every shortest path, so each contributor's
// predecessor on a shortest path from v contributes too. A BFS from v that
// expands only contributors therefore reaches every contributor at its
// true distance and sums exactly the integers a dense hop-matrix row scan
// would — without the n×n matrix. The ball ends where nearest runs out, so
// it is small while copies are dense; when copies are very sparse it can
// grow to O(n + m) per candidate, where the row scan was O(n).

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "metrics/cache_state.h"
#include "util/deadline.h"

namespace faircache::core {

// Visit-stamp scratch for one ball BFS worker. A node counts as visited
// when its stamp equals the current generation, so starting a new BFS costs
// one increment instead of an O(n) clear. The generation is wrap-safe: when
// it would overflow, every stamp is cleared and counting restarts, so a
// stale stamp can never match however many balls one scratch serves.
class RehostScratch {
 public:
  // `first_generation` is where the counter starts (tests start it next
  // to the limit to exercise the wrap).
  explicit RehostScratch(std::size_t num_nodes,
                         std::uint32_t first_generation = 0);

  // A generation no stamp holds yet.
  std::uint32_t next_generation();
  std::uint32_t generation() const { return generation_; }

 private:
  friend class GreedyRehoster;
  std::vector<std::uint32_t> stamp_;
  std::vector<graph::NodeId> queue_;
  std::uint32_t generation_;
};

class GreedyRehoster {
 public:
  // `alive` (optional, one entry per node): dead nodes are never visited,
  // never relay a BFS and never become copies. `radius` > 0 bounds every
  // ball to that many hops — savings beyond it are forfeited, as under the
  // sparse contention radius the solver ran with; <= 0 is unbounded.
  // `threads` drives the candidate scan of best().
  GreedyRehoster(const graph::Graph& g, const std::vector<char>* alive,
                 int radius, int threads);

  // Resets nearest to the hop distance from the closest alive entry of
  // `sources` (graph::kUnreachable where none is reachable).
  void seed(std::span<const graph::NodeId> sources);

  // Records a copy on alive node v: lowers nearest by an improvement-only
  // BFS from v.
  void add_copy(graph::NodeId v);

  const std::vector<int>& nearest() const { return nearest_; }

  // Exact gain(v). Precondition: 0 < nearest[v] < graph::kUnreachable.
  long long gain(graph::NodeId v, RehostScratch& scratch) const;

  // The candidate with the largest strictly positive gain, smallest id on
  // ties; graph::kInvalidNode when no candidate gains. Candidates are the
  // nodes with a reachable copy that hold none themselves
  // (0 < nearest < kUnreachable) and pass state.can_cache(v, chunk). The
  // scan polls `budget` (util::parallel_for's cancellation contract): if it
  // expired the result is kInvalidNode and the caller must not act on it.
  graph::NodeId best(const metrics::CacheState& state, metrics::ChunkId chunk,
                     const util::RunBudget& budget = {});

 private:
  // Alive-only adjacency in CSR form: dead nodes have no edges.
  std::vector<int> offset_;
  std::vector<graph::NodeId> neighbor_;
  const std::vector<char>* alive_;
  int limit_;
  std::vector<int> nearest_;
  std::vector<graph::NodeId> wave_;
  std::vector<RehostScratch> scratch_;  // one per scan worker
  std::vector<long long> gain_;

  void relax();
};

}  // namespace faircache::core
