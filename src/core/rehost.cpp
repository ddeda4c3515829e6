#include "core/rehost.h"

#include <algorithm>
#include <limits>

#include "graph/shortest_paths.h"
#include "util/check.h"
#include "util/parallel.h"

namespace faircache::core {

using graph::NodeId;

RehostScratch::RehostScratch(std::size_t num_nodes,
                             std::uint32_t first_generation)
    : stamp_(num_nodes, 0), generation_(first_generation) {}

std::uint32_t RehostScratch::next_generation() {
  if (generation_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    generation_ = 0;
  }
  return ++generation_;
}

GreedyRehoster::GreedyRehoster(const graph::Graph& g,
                               const std::vector<char>* alive, int radius,
                               int threads)
    : alive_(alive), limit_(radius > 0 ? radius : g.num_nodes()) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  FAIRCACHE_CHECK(alive == nullptr || alive->size() == n,
                  "liveness mask size mismatch");
  auto is_alive = [&](NodeId v) {
    return alive == nullptr || (*alive)[static_cast<std::size_t>(v)] != 0;
  };
  offset_.reserve(n + 1);
  offset_.push_back(0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (is_alive(v)) {
      for (NodeId w : g.neighbors(v)) {
        if (is_alive(w)) neighbor_.push_back(w);
      }
    }
    offset_.push_back(static_cast<int>(neighbor_.size()));
  }
  nearest_.assign(n, graph::kUnreachable);
  const int workers = util::resolve_parallel_threads(threads, n);
  scratch_.assign(static_cast<std::size_t>(workers), RehostScratch(n));
  gain_.resize(n);
}

void GreedyRehoster::relax() {
  for (std::size_t head = 0; head < wave_.size(); ++head) {
    const NodeId v = wave_[head];
    const int next = nearest_[static_cast<std::size_t>(v)] + 1;
    for (int e = offset_[v]; e < offset_[v + 1]; ++e) {
      const auto w = static_cast<std::size_t>(neighbor_[e]);
      if (nearest_[w] > next) {
        nearest_[w] = next;
        wave_.push_back(neighbor_[e]);
      }
    }
  }
  wave_.clear();
}

void GreedyRehoster::seed(std::span<const NodeId> sources) {
  std::fill(nearest_.begin(), nearest_.end(), graph::kUnreachable);
  for (NodeId s : sources) {
    const auto si = static_cast<std::size_t>(s);
    if (alive_ != nullptr && (*alive_)[si] == 0) continue;
    if (nearest_[si] == 0) continue;
    nearest_[si] = 0;
    wave_.push_back(s);
  }
  relax();
}

void GreedyRehoster::add_copy(NodeId v) {
  const auto vi = static_cast<std::size_t>(v);
  if (nearest_[vi] == 0) return;
  nearest_[vi] = 0;
  wave_.push_back(v);
  relax();
}

long long GreedyRehoster::gain(NodeId v, RehostScratch& scratch) const {
  FAIRCACHE_DCHECK(nearest_[static_cast<std::size_t>(v)] > 0 &&
                   nearest_[static_cast<std::size_t>(v)] <
                       graph::kUnreachable);
  const std::uint32_t generation = scratch.next_generation();
  std::uint32_t* stamp = scratch.stamp_.data();
  std::vector<NodeId>& queue = scratch.queue_;
  const int* nearest = nearest_.data();
  // v's own saving (nearest[v] − 0) cancels its dissemination penalty.
  long long sum = 0;
  queue.clear();
  queue.push_back(v);
  stamp[v] = generation;
  // Level-synchronous BFS: queue[level_begin, level_end) holds the
  // contributors at depth `depth`, each expanded only below the radius.
  std::size_t level_begin = 0;
  for (int depth = 1; depth <= limit_ && level_begin < queue.size();
       ++depth) {
    const std::size_t level_end = queue.size();
    for (std::size_t i = level_begin; i < level_end; ++i) {
      const NodeId u = queue[i];
      for (int e = offset_[u]; e < offset_[u + 1]; ++e) {
        const NodeId w = neighbor_[e];
        if (stamp[w] == generation) continue;
        stamp[w] = generation;
        // Alive edges keep w in v's component, which holds a copy.
        const int saving = nearest[w] - depth;
        if (saving <= 0) continue;
        sum += saving;
        queue.push_back(w);
      }
    }
    level_begin = level_end;
  }
  return sum;
}

NodeId GreedyRehoster::best(const metrics::CacheState& state,
                            metrics::ChunkId chunk,
                            const util::RunBudget& budget) {
  util::parallel_for(
      gain_.size(),
      [&](std::size_t vi, int worker) {
        const int reach = nearest_[vi];
        const auto v = static_cast<NodeId>(vi);
        gain_[vi] = reach == 0 || reach == graph::kUnreachable ||
                            !state.can_cache(v, chunk)
                        ? 0
                        : gain(v, scratch_[static_cast<std::size_t>(worker)]);
      },
      static_cast<int>(scratch_.size()), budget);
  if (budget.expired()) return graph::kInvalidNode;  // partial gains
  long long best_gain = 0;
  NodeId best_v = graph::kInvalidNode;
  for (std::size_t vi = 0; vi < gain_.size(); ++vi) {
    if (gain_[vi] > best_gain) {
      best_gain = gain_[vi];
      best_v = static_cast<NodeId>(vi);
    }
  }
  return best_v;
}

}  // namespace faircache::core
