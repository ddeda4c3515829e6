#pragma once

// Steiner-tree construction for the dissemination phase: the selected
// caching nodes of a chunk must form a connected tree rooted at the producer
// (constraint (6) of the ILP), and the dissemination cost is the sum of the
// chosen edges' contention costs.
//
// Implementations:
//  * `steiner_mst_approx` — Mehlhorn's 2-approximation: one multi-source
//    Dijkstra partitions the graph into terminal Voronoi regions, the
//    region-boundary edges induce the terminal distance graph, and its MST
//    is expanded, re-spanned and pruned. The paper cites the 1.55-ratio
//    Robins–Zelikovsky algorithm; any constant-factor tree keeps the ConFL
//    analysis intact, and this is the one tree every layer builds (solver,
//    evaluator, traffic model, baselines, local search).
//  * `steiner_exact_dreyfus_wagner` — exponential-in-|terminals| exact DP,
//    used as the optimality oracle in tests and by the tiny-instance exact
//    solver.

#include <vector>

#include "graph/graph.h"
#include "util/deadline.h"
#include "util/status.h"

namespace faircache::steiner {

// The tree construction. One engine remains; the type exists only for the
// argument list of the compatibility overload of try_steiner_mst_approx
// below.
enum class Engine {
  // Mehlhorn's Voronoi-partition construction: one multi-source Dijkstra
  // labels every node with its nearest terminal, Voronoi boundary edges
  // induce the terminal distance graph, and Kruskal over those boundary
  // candidates selects a closure MST. O(m log n) total, deterministic.
  kVoronoi,
};

struct SteinerTree {
  std::vector<graph::EdgeId> edges;  // tree edges (sorted, unique)
  double cost = 0.0;                 // sum of edge weights

  // All nodes touched by the tree (sorted, unique).
  std::vector<graph::NodeId> nodes(const graph::Graph& g) const;
};

// 2-approximate Steiner tree connecting `terminals` (deduplicated; must be
// non-empty and mutually reachable). A single terminal yields an empty tree.
// The construction is one serial sweep with no shared state, so callers may
// build trees concurrently.
SteinerTree steiner_mst_approx(const graph::Graph& g,
                               const std::vector<double>& edge_weight,
                               std::vector<graph::NodeId> terminals);

// Non-throwing, budget-aware variant of steiner_mst_approx. Malformed
// input yields kInvalidInput, mutually unreachable terminals kInfeasible,
// and an expired util::RunBudget the budget's own reason (kCancelled /
// kDeadlineExceeded / kResourceExhausted). One work unit is charged for
// the multi-source sweep, and the budget is polled between pipeline
// phases. A run that completes under an unexpired budget is bit-identical
// to steiner_mst_approx.
util::Result<SteinerTree> try_steiner_mst_approx(
    const graph::Graph& g, const std::vector<double>& edge_weight,
    std::vector<graph::NodeId> terminals, const util::RunBudget& budget = {});

// Compatibility overload for callers written against the two-engine API:
// `threads` and `engine` are accepted and ignored, and the result is that
// of the overload above.
util::Result<SteinerTree> try_steiner_mst_approx(
    const graph::Graph& g, const std::vector<double>& edge_weight,
    std::vector<graph::NodeId> terminals, int threads,
    const util::RunBudget& budget, Engine engine);

// Repeatedly removes edges hanging off non-terminal leaves until every
// leaf of the forest is a terminal; returns the surviving edges sorted
// ascending. Final step of steiner_mst_approx. Runs in
// O(V + |tree_edges|) via a degree-decrement worklist, so long dangling
// paths are pruned in linear time. Exposed for tests.
std::vector<graph::EdgeId> prune_non_terminal_leaves(
    const graph::Graph& g, std::vector<graph::EdgeId> tree_edges,
    const std::vector<char>& is_terminal);

// Exact minimum Steiner tree cost via the Dreyfus–Wagner dynamic program.
// Complexity O(3^t · n + 2^t · n²); keep |terminals| small (≤ ~12).
double steiner_exact_dreyfus_wagner(const graph::Graph& g,
                                    const std::vector<double>& edge_weight,
                                    std::vector<graph::NodeId> terminals);

}  // namespace faircache::steiner
