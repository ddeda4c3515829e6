// Unit + property tests for Steiner tree construction: the Voronoi-partition
// (Mehlhorn) 2-approximation against the exact Dreyfus–Wagner oracle and
// the metric-closure (KMB) oracle of steiner_oracle.h, plus the leaf-prune
// helper.

#include "steiner/steiner.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "graph/generators.h"
#include "steiner_oracle.h"
#include "util/rng.h"

namespace faircache::steiner {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::make_grid;
using graph::NodeId;

std::vector<double> unit_weights(const Graph& g) {
  return std::vector<double>(static_cast<std::size_t>(g.num_edges()), 1.0);
}

// Verifies the returned edge set is a tree spanning all terminals.
void expect_valid_tree(const Graph& g, const SteinerTree& tree,
                       const std::vector<NodeId>& terminals) {
  // Build the tree subgraph and check connectivity over terminals + acyclic.
  std::set<NodeId> nodes;
  for (EdgeId e : tree.edges) {
    nodes.insert(g.edge(e).u);
    nodes.insert(g.edge(e).v);
  }
  for (NodeId t : terminals) {
    if (terminals.size() > 1) {
      EXPECT_TRUE(nodes.count(t)) << "terminal " << t << " not in tree";
    }
  }
  // A tree with k nodes has k−1 edges.
  if (!tree.edges.empty()) {
    EXPECT_EQ(nodes.size(), tree.edges.size() + 1);
  }
}

// One Steiner instance: graph, edge weights, terminals.
struct Instance {
  Graph g;
  std::vector<double> w;
  std::vector<NodeId> terminals;
};

// SteinerRatioTest's instance `param`: 8–24 nodes, 2–6 random terminals.
Instance make_ratio_instance(int param) {
  util::Rng rng(static_cast<std::uint64_t>(param) * 48271 + 1);
  graph::RandomGeometricConfig config;
  config.num_nodes = static_cast<int>(rng.uniform_int(8, 24));
  config.radius = rng.uniform(0.3, 0.5);
  Instance inst;
  inst.g = graph::make_random_geometric(config, rng).graph;
  inst.w.resize(static_cast<std::size_t>(inst.g.num_edges()));
  for (auto& x : inst.w) x = rng.uniform(0.5, 4.0);
  const int k =
      static_cast<int>(rng.uniform_int(2, std::min(6, inst.g.num_nodes())));
  std::vector<NodeId> all(static_cast<std::size_t>(inst.g.num_nodes()));
  for (NodeId v = 0; v < inst.g.num_nodes(); ++v) {
    all[static_cast<std::size_t>(v)] = v;
  }
  rng.shuffle(all);
  inst.terminals.assign(all.begin(), all.begin() + k);
  return inst;
}

// Fixture families for the oracle's pinned hashes.
std::vector<Instance> grid3_corners() {
  Instance inst;
  inst.g = make_grid(3, 3);
  inst.w = unit_weights(inst.g);
  inst.terminals = {0, 2, 6, 8};
  return {inst};
}

std::vector<Instance> grid4_weighted() {
  util::Rng rng(7);
  Instance inst;
  inst.g = make_grid(4, 4);
  inst.w.resize(static_cast<std::size_t>(inst.g.num_edges()));
  for (auto& x : inst.w) x = rng.uniform(0.5, 4.0);
  inst.terminals = {0, 5, 10, 15};
  return {inst};
}

// Triangle 0-1-2 with an expensive chord 0-2 and a cheap detour 0-3-2.
std::vector<Instance> weighted_detour() {
  Instance inst;
  inst.g = Graph(4);
  inst.g.add_edge(0, 1);
  inst.g.add_edge(1, 2);
  inst.g.add_edge(0, 2);
  inst.g.add_edge(0, 3);
  inst.g.add_edge(3, 2);
  inst.w = {5.0, 5.0, 100.0, 1.0, 1.0};
  inst.terminals = {0, 2};
  return {inst};
}

// Unit weights on a 20×20 grid: equal-cost paths everywhere, so the pin
// covers the tie-breaking of every step.
std::vector<Instance> grid20_unit() {
  Instance inst;
  inst.g = make_grid(20, 20);
  inst.w = unit_weights(inst.g);
  for (NodeId v = 0; v < inst.g.num_nodes(); v += 37) {
    inst.terminals.push_back(v);
  }
  return {inst};
}

// Small integer weights on random geometric graphs: ties between
// shortest paths are common, and on several of these instances the KMB
// tree and the Voronoi tree differ.
std::vector<Instance> geo_integer() {
  std::vector<Instance> family;
  for (int seed = 0; seed < 40; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(seed));
    graph::RandomGeometricConfig config;
    config.num_nodes = 20 + seed;
    config.radius = 0.35;
    Instance inst;
    inst.g = graph::make_random_geometric(config, rng).graph;
    inst.w.resize(static_cast<std::size_t>(inst.g.num_edges()));
    for (auto& x : inst.w) x = static_cast<double>(rng.uniform_int(1, 3));
    for (NodeId v = 0; v < inst.g.num_nodes(); v += 3 + seed % 4) {
      inst.terminals.push_back(v);
    }
    family.push_back(std::move(inst));
  }
  return family;
}

// Ten random geometric graphs of 12–60 nodes with weights in [0.5, 4) and
// every fourth node a terminal.
std::vector<Instance> geo_trials() {
  util::Rng rng(314);
  std::vector<Instance> family;
  for (int trial = 0; trial < 10; ++trial) {
    graph::RandomGeometricConfig config;
    config.num_nodes = static_cast<int>(rng.uniform_int(12, 60));
    config.radius = 0.35;
    Instance inst;
    inst.g = graph::make_random_geometric(config, rng).graph;
    inst.w.resize(static_cast<std::size_t>(inst.g.num_edges()));
    for (auto& x : inst.w) x = rng.uniform(0.5, 4.0);
    for (NodeId v = 0; v < inst.g.num_nodes(); v += 4) {
      inst.terminals.push_back(v);
    }
    family.push_back(std::move(inst));
  }
  return family;
}

std::vector<Instance> ratio_instances() {
  std::vector<Instance> family;
  for (int param = 0; param < 30; ++param) {
    family.push_back(make_ratio_instance(param));
  }
  return family;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int b = 0; b < 8; ++b) {
    h ^= (x >> (8 * b)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

// Chains one tree's edge ids, edge count and cost bits onto `h`.
std::uint64_t tree_hash(std::uint64_t h, const SteinerTree& tree) {
  for (EdgeId e : tree.edges) h = fnv1a(h, static_cast<std::uint64_t>(e));
  h = fnv1a(h, tree.edges.size());
  return fnv1a(h, std::bit_cast<std::uint64_t>(tree.cost));
}

TEST(SteinerApproxTest, SingleTerminalEmptyTree) {
  const Graph g = make_grid(3, 3);
  const auto tree = steiner_mst_approx(g, unit_weights(g), {4});
  EXPECT_TRUE(tree.edges.empty());
  EXPECT_DOUBLE_EQ(tree.cost, 0.0);
}

TEST(SteinerApproxTest, TwoTerminalsIsShortestPath) {
  const Graph g = make_grid(3, 3);
  const auto tree = steiner_mst_approx(g, unit_weights(g), {0, 8});
  EXPECT_DOUBLE_EQ(tree.cost, 4.0);  // 4 hops across the grid
  expect_valid_tree(g, tree, {0, 8});
}

TEST(SteinerApproxTest, DuplicateTerminalsDeduplicated) {
  const Graph g = make_grid(3, 3);
  const auto tree = steiner_mst_approx(g, unit_weights(g), {0, 8, 0, 8});
  EXPECT_DOUBLE_EQ(tree.cost, 4.0);
}

TEST(SteinerApproxTest, CornersOfGridUseSteinerNodes) {
  // All four corners of a 3×3 grid: optimum is 6 (e.g. the boundary "C"
  // 2-0-6 plus 6-8 uses two corners as Steiner points), and the tree must
  // touch intermediate non-terminal nodes.
  const Graph g = make_grid(3, 3);
  const std::vector<NodeId> corners{0, 2, 6, 8};
  const auto tree = steiner_mst_approx(g, unit_weights(g), corners);
  expect_valid_tree(g, tree, corners);
  EXPECT_GE(tree.cost, 6.0 - 1e-9);
  EXPECT_LE(tree.cost, 2.0 * 6.0 + 1e-9);  // 2-approx bound
}

TEST(SteinerApproxTest, WeightedAvoidsExpensiveEdges) {
  // Triangle 0-1-2 plus path 0-3-2; direct edge 0-2 very expensive.
  Graph g(4);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  const EdgeId e02 = g.add_edge(0, 2);
  const EdgeId e03 = g.add_edge(0, 3);
  const EdgeId e32 = g.add_edge(3, 2);
  std::vector<double> w(5, 0.0);
  w[static_cast<std::size_t>(e01)] = 5.0;
  w[static_cast<std::size_t>(e12)] = 5.0;
  w[static_cast<std::size_t>(e02)] = 100.0;
  w[static_cast<std::size_t>(e03)] = 1.0;
  w[static_cast<std::size_t>(e32)] = 1.0;
  const auto tree = steiner_mst_approx(g, w, {0, 2});
  EXPECT_DOUBLE_EQ(tree.cost, 2.0);  // through node 3
}

TEST(SteinerApproxTest, DisconnectedTerminalsRejected) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_THROW(
      steiner_mst_approx(g, unit_weights(g), {0, 3}),
      util::CheckError);
  EXPECT_THROW(test_oracle::kmb_steiner_tree(g, unit_weights(g), {0, 3}),
               util::CheckError);
}

// ------------------------------------------------ Voronoi engine fixtures --

TEST(SteinerVoronoiTest, MatchesKnownGridCosts) {
  const Graph g = make_grid(3, 3);
  const auto w = unit_weights(g);
  EXPECT_TRUE(steiner_mst_approx(g, w, {4}).edges.empty());
  EXPECT_DOUBLE_EQ(steiner_mst_approx(g, w, {0, 8}).cost, 4.0);
  EXPECT_DOUBLE_EQ(steiner_mst_approx(g, w, {0, 8, 0, 8}).cost, 4.0);
  const auto corners = steiner_mst_approx(g, w, {0, 2, 6, 8});
  expect_valid_tree(g, corners, {0, 2, 6, 8});
  EXPECT_GE(corners.cost, 6.0 - 1e-9);
  EXPECT_LE(corners.cost, 2.0 * 6.0 + 1e-9);
}

// Pinned deterministic outputs: the Voronoi engine's tie-breaking is part
// of its determinism contract, so these exact edge sets are golden. Any
// change here is a behaviour change for every tree consumer, not a
// refactor.
TEST(SteinerVoronoiTest, PinnedDeterministicOutputs) {
  {
    const Graph g = make_grid(3, 3);
    const auto tree = steiner_mst_approx(g, unit_weights(g), {0, 2, 6, 8});
    EXPECT_EQ(tree.edges, (std::vector<EdgeId>{0, 1, 2, 4, 6, 9}));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tree.cost),
              0x4018000000000000ULL);  // 6.0
  }
  {
    util::Rng rng(7);
    const Graph g = make_grid(4, 4);
    std::vector<double> w(static_cast<std::size_t>(g.num_edges()));
    for (auto& x : w) x = rng.uniform(0.5, 4.0);
    const auto tree = steiner_mst_approx(g, w, {0, 5, 10, 15});
    EXPECT_EQ(tree.edges, (std::vector<EdgeId>{1, 7, 10, 16, 18, 20}));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tree.cost),
              0x40209072dc3aa384ULL);  // 8.2821263143139348
  }
}

// The Voronoi tree and the KMB oracle's tree are both ≤ 2·OPT and ≥ OPT,
// so neither may cost more than twice the other. Random geometric graphs
// with real and small-integer weights, and unit-weight grids where ties
// are everywhere.
TEST(SteinerVoronoiTest, WithinTwiceKmbOnRandomInstances) {
  std::vector<Instance> instances = geo_trials();
  for (Instance& inst : geo_integer()) instances.push_back(std::move(inst));
  for (int side = 4; side <= 12; side += 4) {
    Instance inst;
    inst.g = make_grid(side, side);
    inst.w = unit_weights(inst.g);
    for (NodeId v = 0; v < inst.g.num_nodes(); v += 5) {
      inst.terminals.push_back(v);
    }
    instances.push_back(std::move(inst));
  }
  for (std::size_t k = 0; k < instances.size(); ++k) {
    SCOPED_TRACE("instance " + std::to_string(k));
    const Instance& inst = instances[k];
    const auto kmb =
        test_oracle::kmb_steiner_tree(inst.g, inst.w, inst.terminals);
    const auto vor = steiner_mst_approx(inst.g, inst.w, inst.terminals);
    expect_valid_tree(inst.g, vor, inst.terminals);
    expect_valid_tree(inst.g, kmb, inst.terminals);
    EXPECT_LE(vor.cost, 2.0 * kmb.cost + 1e-9);
    EXPECT_LE(kmb.cost, 2.0 * vor.cost + 1e-9);
  }
}

// The oracle reproduces, bit for bit, the trees the library's former
// metric-closure engine built on these fixtures: each hash chains every
// tree's edge ids, edge count and cost bits over one fixture family and
// was recorded from that engine. On some geo_integer instances (four when
// recorded) the KMB tree differs from the Voronoi tree, so the pin cannot
// pass by the oracle falling back to the library.
TEST(SteinerOracleTest, ReproducesClosureKmbTrees) {
  const std::tuple<const char*, std::vector<Instance>, std::uint64_t>
      families[] = {
          {"grid3_corners", grid3_corners(), 0x7f2c68ea643915a3ULL},
          {"grid4_weighted", grid4_weighted(), 0x0cb5e0c239f81df8ULL},
          {"weighted_detour", weighted_detour(), 0xd93fb2dfd4aeef60ULL},
          {"grid20_unit", grid20_unit(), 0x9da05671020f57e1ULL},
          {"geo_integer", geo_integer(), 0x948b4d4229d0762dULL},
          {"geo_trials", geo_trials(), 0xc6707140f22de1d2ULL},
          {"ratio_instances", ratio_instances(), 0xc6302dea57792016ULL}};
  int differs_from_voronoi = 0;
  for (const auto& [name, family, pinned] : families) {
    std::uint64_t h = kFnvBasis;
    for (const Instance& inst : family) {
      const SteinerTree kmb =
          test_oracle::kmb_steiner_tree(inst.g, inst.w, inst.terminals);
      h = tree_hash(h, kmb);
      differs_from_voronoi +=
          kmb.edges != steiner_mst_approx(inst.g, inst.w, inst.terminals).edges;
    }
    EXPECT_EQ(h, pinned) << name << std::hex << ": got 0x" << h;
  }
  EXPECT_GT(differs_from_voronoi, 0);
}

// ------------------------------------------------------------ leaf prune --

TEST(PruneTest, KeepsTerminalLeavesDropsDanglingBranch) {
  // Y-shaped tree centred at 1: branches to terminals 0 and 2, plus a
  // dangling non-terminal path 1-3-4. Only the dangling branch goes.
  Graph g(5);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  const EdgeId e13 = g.add_edge(1, 3);
  const EdgeId e34 = g.add_edge(3, 4);
  std::vector<char> is_terminal(5, 0);
  is_terminal[0] = is_terminal[2] = 1;
  const auto kept = prune_non_terminal_leaves(
      g, {e01, e12, e13, e34}, is_terminal);
  EXPECT_EQ(kept, (std::vector<EdgeId>{e01, e12}));
}

// Regression: the old prune loop rebuilt the full O(V) degree array every
// pass and removed one leaf edge per pass on a path, going quadratic. A
// 200k-edge dangling path must prune in linear time (the quadratic loop
// would need ~2·10¹⁰ operations here).
TEST(PruneTest, LongDanglingPathPrunesInLinearTime) {
  const int n = 200000;
  Graph g(n);
  std::vector<EdgeId> path_edges;
  path_edges.reserve(static_cast<std::size_t>(n) - 1);
  for (NodeId v = 0; v + 1 < n; ++v) {
    path_edges.push_back(g.add_edge(v, v + 1));
  }
  std::vector<char> is_terminal(static_cast<std::size_t>(n), 0);
  is_terminal[0] = 1;  // the whole path dangles off the lone terminal
  const auto kept = prune_non_terminal_leaves(g, path_edges, is_terminal);
  EXPECT_TRUE(kept.empty());
}

TEST(SteinerExactTest, MatchesKnownGridInstances) {
  const Graph g = make_grid(3, 3);
  const auto w = unit_weights(g);
  EXPECT_DOUBLE_EQ(steiner_exact_dreyfus_wagner(g, w, {0}), 0.0);
  EXPECT_DOUBLE_EQ(steiner_exact_dreyfus_wagner(g, w, {0, 8}), 4.0);
  EXPECT_DOUBLE_EQ(steiner_exact_dreyfus_wagner(g, w, {0, 2, 6, 8}), 6.0);
  // Center plus two adjacent corners: 0-1-2 plus 1-4.
  EXPECT_DOUBLE_EQ(steiner_exact_dreyfus_wagner(g, w, {0, 2, 4}), 3.0);
}

TEST(SteinerExactTest, StarCenterIsFreeSteinerPoint) {
  // Star: terminals are 3 leaves; optimum connects through the hub = 3.
  const Graph g = graph::make_star(5);
  const auto w = unit_weights(g);
  EXPECT_DOUBLE_EQ(steiner_exact_dreyfus_wagner(g, w, {1, 2, 3}), 3.0);
}

// Pinned bitwise fixture for the flat-storage (util::Matrix) port of the
// Dreyfus–Wagner dp: the exact cost on this instance must stay bit-for-bit
// what the nested-vector implementation produced.
TEST(SteinerExactTest, MatrixPortIsBitIdenticalOnPinnedFixture) {
  util::Rng rng(4242);
  graph::RandomGeometricConfig config;
  config.num_nodes = 18;
  config.radius = 0.4;
  const auto net = graph::make_random_geometric(config, rng);
  std::vector<double> w(static_cast<std::size_t>(net.graph.num_edges()));
  for (auto& x : w) x = rng.uniform(0.5, 4.0);
  const double cost =
      steiner_exact_dreyfus_wagner(net.graph, w, {0, 3, 7, 11, 15});
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cost),
            0x4030996916345097ULL);  // 16.599259746334237
}

// Property sweep: on random weighted graphs, the Voronoi tree and the KMB
// oracle are each within 2× of exact and never below it, and structurally
// valid.
class SteinerRatioTest : public ::testing::TestWithParam<int> {};

TEST_P(SteinerRatioTest, ApproxWithinTwiceExact) {
  const Instance inst = make_ratio_instance(GetParam());
  const double exact =
      steiner_exact_dreyfus_wagner(inst.g, inst.w, inst.terminals);
  const std::pair<const char*, SteinerTree> approxes[2] = {
      {"voronoi", steiner_mst_approx(inst.g, inst.w, inst.terminals)},
      {"kmb oracle",
       test_oracle::kmb_steiner_tree(inst.g, inst.w, inst.terminals)}};
  for (const auto& [name, approx] : approxes) {
    SCOPED_TRACE(name);
    expect_valid_tree(inst.g, approx, inst.terminals);
    EXPECT_GE(approx.cost, exact - 1e-6);
    EXPECT_LE(approx.cost, 2.0 * exact + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SteinerRatioTest,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace faircache::steiner
