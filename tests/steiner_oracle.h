#pragma once

// Test oracle for the Steiner tree (steiner/steiner.h): the classic
// Kou–Markowsky–Berman construction over the terminal metric closure. One
// full single-source Dijkstra per terminal, Prim over the implicit
// closure, expansion of the selected closure edges into graph paths, then
// the same MST-of-union → leaf-prune tail as the library. O(|T| · m log n);
// kept only as the 2-approximate reference the Voronoi engine is bounded
// against (each tree is ≤ 2·OPT while the other is ≥ OPT).

#include <algorithm>
#include <numeric>
#include <tuple>
#include <vector>

#include "graph/graph.h"
#include "graph/shortest_paths.h"
#include "steiner/steiner.h"
#include "util/check.h"

namespace faircache::test_oracle {

using graph::EdgeId;
using graph::NodeId;

// KMB tree connecting `terminals` (deduplicated; non-empty, mutually
// reachable — a CheckError otherwise). A single terminal yields an empty
// tree.
inline steiner::SteinerTree kmb_steiner_tree(
    const graph::Graph& g, const std::vector<double>& edge_weight,
    std::vector<NodeId> terminals) {
  FAIRCACHE_CHECK(static_cast<int>(edge_weight.size()) == g.num_edges(),
                  "edge weight vector size mismatch");
  std::sort(terminals.begin(), terminals.end());
  terminals.erase(std::unique(terminals.begin(), terminals.end()),
                  terminals.end());
  FAIRCACHE_CHECK(!terminals.empty(), "need at least one terminal");
  steiner::SteinerTree result;
  if (terminals.size() == 1) return result;

  std::vector<char> is_terminal(static_cast<std::size_t>(g.num_nodes()), 0);
  for (NodeId t : terminals) is_terminal[static_cast<std::size_t>(t)] = 1;

  // 1. Shortest-path trees from every terminal.
  std::vector<graph::EdgeWeightedPaths> trees;
  trees.reserve(terminals.size());
  for (NodeId t : terminals) {
    trees.push_back(graph::dijkstra_edge_weights(g, t, edge_weight));
  }

  // 2. MST of the terminal metric closure. Closure edge {a, b} (a < b)
  // carries the triple (w, a, b) with w = trees[a].cost[terminals[b]];
  // (w, a, b) is a strict total order, so Prim with full-triple
  // comparisons selects the unique MST.
  const std::size_t nt = terminals.size();
  std::vector<char> in_tree(nt, 0);
  std::vector<double> key_w(nt, graph::kInfCost);
  std::vector<std::size_t> key_a(nt, 0), key_b(nt, 0);
  std::vector<EdgeId> union_edges;
  const auto closure_cost = [&](std::size_t a, std::size_t b) {
    return trees[a].cost[static_cast<std::size_t>(terminals[b])];
  };
  in_tree[0] = 1;
  for (std::size_t u = 1; u < nt; ++u) {
    key_w[u] = closure_cost(0, u);
    key_a[u] = 0;
    key_b[u] = u;
  }
  for (std::size_t added = 1; added < nt; ++added) {
    std::size_t o = nt;
    for (std::size_t u = 0; u < nt; ++u) {
      if (in_tree[u]) continue;
      if (o == nt || std::tie(key_w[u], key_a[u], key_b[u]) <
                         std::tie(key_w[o], key_a[o], key_b[o])) {
        o = u;
      }
    }
    FAIRCACHE_CHECK(key_w[o] != graph::kInfCost,
                    "terminals are not mutually reachable");
    in_tree[o] = 1;
    // 3. Expand the selected closure edge into real graph edges along the
    // shortest path from terminal key_a[o] to terminal key_b[o].
    const auto& tree = trees[key_a[o]];
    for (NodeId v = terminals[key_b[o]]; v != tree.source;
         v = tree.parent[static_cast<std::size_t>(v)]) {
      union_edges.push_back(tree.parent_edge[static_cast<std::size_t>(v)]);
    }
    for (std::size_t u = 0; u < nt; ++u) {
      if (in_tree[u]) continue;
      const std::size_t a = std::min(o, u);
      const std::size_t b = std::max(o, u);
      const double w = closure_cost(a, b);
      if (std::tie(w, a, b) < std::tie(key_w[u], key_a[u], key_b[u])) {
        key_w[u] = w;
        key_a[u] = a;
        key_b[u] = b;
      }
    }
  }

  // 4. MST of the union subgraph, Kruskal in (weight, edge id) order.
  std::sort(union_edges.begin(), union_edges.end());
  union_edges.erase(std::unique(union_edges.begin(), union_edges.end()),
                    union_edges.end());
  std::sort(union_edges.begin(), union_edges.end(), [&](EdgeId x, EdgeId y) {
    const double wx = edge_weight[static_cast<std::size_t>(x)];
    const double wy = edge_weight[static_cast<std::size_t>(y)];
    return std::tie(wx, x) < std::tie(wy, y);
  });
  std::vector<std::size_t> parent(static_cast<std::size_t>(g.num_nodes()));
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::vector<EdgeId> tree_edges;
  for (EdgeId e : union_edges) {
    const std::size_t a = find(static_cast<std::size_t>(g.edge(e).u));
    const std::size_t b = find(static_cast<std::size_t>(g.edge(e).v));
    if (a == b) continue;
    parent[a] = b;
    tree_edges.push_back(e);
  }

  // 5. Prune non-terminal leaves.
  result.edges =
      steiner::prune_non_terminal_leaves(g, std::move(tree_edges), is_terminal);
  for (EdgeId e : result.edges) {
    result.cost += edge_weight[static_cast<std::size_t>(e)];
  }
  return result;
}

}  // namespace faircache::test_oracle
