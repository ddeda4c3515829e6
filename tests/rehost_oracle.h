#pragma once

// Test oracle for the greedy re-hosting kernel (core/rehost.h): the dense
// hop-matrix row scan the kernel replaced. Every gain is summed over a full
// row of an alive-aware all-pairs hop matrix, and nearest copies are
// lowered by a row-wise min — O(n²) memory and O(n²) per greedy step, kept
// only as the reference the ball-pruned kernel must reproduce exactly.

#include <algorithm>
#include <vector>

#include "core/problem.h"
#include "graph/graph.h"
#include "graph/shortest_paths.h"
#include "metrics/cache_state.h"

namespace faircache::test_oracle {

using graph::NodeId;
using Hops = std::vector<std::vector<int>>;

inline bool alive_at(const std::vector<char>* alive, NodeId v) {
  return alive == nullptr || (*alive)[static_cast<std::size_t>(v)] != 0;
}

// Row v: BFS hop distances from v that never route through dead nodes
// (kUnreachable for dead and cut-off nodes).
inline Hops alive_hops(const graph::Graph& g,
                       const std::vector<char>* alive) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  Hops hops(n, std::vector<int>(n, graph::kUnreachable));
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (!alive_at(alive, s)) continue;
    std::vector<int>& row = hops[static_cast<std::size_t>(s)];
    std::vector<NodeId> frontier = {s};
    row[static_cast<std::size_t>(s)] = 0;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const NodeId v = frontier[head];
      for (NodeId w : g.neighbors(v)) {
        int& dw = row[static_cast<std::size_t>(w)];
        if (!alive_at(alive, w) || dw != graph::kUnreachable) continue;
        dw = row[static_cast<std::size_t>(v)] + 1;
        frontier.push_back(w);
      }
    }
  }
  return hops;
}

// nearest[j] = min over alive sources of hops(source, j).
inline std::vector<int> nearest_copy(const Hops& hops,
                                     const std::vector<NodeId>& sources,
                                     const std::vector<char>* alive) {
  std::vector<int> nearest(hops.size(), graph::kUnreachable);
  for (NodeId s : sources) {
    if (!alive_at(alive, s)) continue;
    const std::vector<int>& row = hops[static_cast<std::size_t>(s)];
    for (std::size_t j = 0; j < hops.size(); ++j) {
      nearest[j] = std::min(nearest[j], row[j]);
    }
  }
  return nearest;
}

// gain(v) = −nearest[v] + Σ_j max(0, nearest[j] − hops(v, j)) over the
// clients j with a reachable copy and, for radius > 0, hops(v, j) ≤ radius.
inline long long row_gain(const Hops& hops, const std::vector<int>& nearest,
                          NodeId v, int radius) {
  const std::vector<int>& row = hops[static_cast<std::size_t>(v)];
  long long gain =
      -static_cast<long long>(nearest[static_cast<std::size_t>(v)]);
  for (std::size_t j = 0; j < hops.size(); ++j) {
    if (nearest[j] == graph::kUnreachable || row[j] >= nearest[j]) continue;
    if (radius > 0 && row[j] > radius) continue;
    gain += nearest[j] - row[j];
  }
  return gain;
}

// Largest strictly positive gain over the alive, reachable nodes that
// state.can_cache; smallest id on ties; kInvalidNode when none gains.
inline NodeId best_candidate(const Hops& hops,
                             const std::vector<int>& nearest,
                             const std::vector<char>* alive,
                             const metrics::CacheState& state,
                             metrics::ChunkId chunk, int radius) {
  long long best_gain = 0;
  NodeId best_v = graph::kInvalidNode;
  for (NodeId v = 0; v < static_cast<NodeId>(hops.size()); ++v) {
    if (!alive_at(alive, v) || !state.can_cache(v, chunk)) continue;
    if (nearest[static_cast<std::size_t>(v)] == graph::kUnreachable) continue;
    const long long gain = row_gain(hops, nearest, v, radius);
    if (gain > best_gain) {
      best_gain = gain;
      best_v = v;
    }
  }
  return best_v;
}

inline void add_copy(const Hops& hops, std::vector<int>& nearest, NodeId v) {
  const std::vector<int>& row = hops[static_cast<std::size_t>(v)];
  for (std::size_t j = 0; j < hops.size(); ++j) {
    nearest[j] = std::min(nearest[j], row[j]);
  }
}

// The anytime solver's fallback with every chunk degraded (a budget that
// expired before chunk 0): each chunk grows from producer + holders until
// no node gains, its set sorted ascending and then cached.
inline std::vector<std::vector<NodeId>> fallback_sets(
    const core::FairCachingProblem& problem, int radius) {
  const Hops hops = alive_hops(*problem.network, nullptr);
  metrics::CacheState state = problem.make_initial_state();
  std::vector<std::vector<NodeId>> sets;
  for (metrics::ChunkId c = 0; c < problem.num_chunks; ++c) {
    std::vector<NodeId> sources = state.holders(c);
    sources.push_back(problem.producer);
    std::vector<int> nearest = nearest_copy(hops, sources, nullptr);
    std::vector<NodeId> set;
    while (true) {
      // Chosen nodes are not in `state` yet; their nearest is 0, so they
      // never gain again.
      const NodeId v =
          best_candidate(hops, nearest, nullptr, state, c, radius);
      if (v == graph::kInvalidNode) break;
      set.push_back(v);
      add_copy(hops, nearest, v);
    }
    std::sort(set.begin(), set.end());
    for (NodeId v : set) state.add(v, c);
    sets.push_back(std::move(set));
  }
  return sets;
}

}  // namespace faircache::test_oracle
