// Tests for the parallel, allocation-lean solver core: util::Matrix,
// util::parallel_for, the CSR adjacency, and — most
// importantly — the determinism contract: the active-set solve_confl is
// bit-identical to the dense reference engine and to itself at every
// thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "confl/confl.h"
#include "confl_oracle.h"
#include "core/approx.h"
#include "core/instance_builder.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "metrics/contention.h"
#include "steiner/steiner.h"
#include "steiner_oracle.h"
#include "util/matrix.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace faircache {
namespace {

using graph::Graph;
using graph::NodeId;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Connected random geometric network, the workload shape the benchmarks use.
graph::GeometricNetwork random_net(int n, util::Rng& rng) {
  graph::RandomGeometricConfig config;
  config.num_nodes = n;
  config.radius = 0.3;
  return graph::make_random_geometric(config, rng);
}

// ---------------------------------------------------------------- Matrix --

TEST(MatrixTest, ShapeAndAccessors) {
  util::Matrix<double> m(3, 4, 0.5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_FALSE(m.empty());
  EXPECT_DOUBLE_EQ(m(2, 3), 0.5);
  m(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m[1][2], 7.0);   // row-pointer syntax
  EXPECT_EQ(m[1], m.data() + 4);    // rows are contiguous and adjacent
  EXPECT_EQ(m[2], m.data() + 8);
}

TEST(MatrixTest, AssignReshapesAndFills) {
  util::Matrix<int> m;
  EXPECT_TRUE(m.empty());
  m.assign(2, 3, 9);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(m(i, j), 9);
  }
  m.assign(1, 1, -1);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m(0, 0), -1);
}

TEST(MatrixTest, AssignNoInitIsWritable) {
  util::Matrix<double> m;
  m.assign_no_init(5, 5);
  EXPECT_EQ(m.rows(), 5u);
  EXPECT_EQ(m.cols(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      m(i, j) = static_cast<double>(i * 5 + j);
    }
  }
  EXPECT_DOUBLE_EQ(m(4, 4), 24.0);
}

TEST(MatrixTest, Equality) {
  util::Matrix<int> a(2, 2, 1);
  util::Matrix<int> b(2, 2, 1);
  EXPECT_TRUE(a == b);
  b(0, 1) = 2;
  EXPECT_FALSE(a == b);
}

// ----------------------------------------------------------- parallel_for --

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  util::parallel_for(
      kN, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForTest, WorkerIdsAreDense) {
  constexpr std::size_t kN = 512;
  const int threads = util::resolve_parallel_threads(4, kN);
  std::vector<std::atomic<int>> per_worker(static_cast<std::size_t>(threads));
  util::parallel_for(
      kN,
      [&](std::size_t, int worker) {
        ASSERT_GE(worker, 0);
        ASSERT_LT(worker, threads);
        per_worker[static_cast<std::size_t>(worker)].fetch_add(1);
      },
      threads);
  int total = 0;
  for (auto& c : per_worker) total += c.load();
  EXPECT_EQ(total, static_cast<int>(kN));
}

TEST(ParallelForTest, NestedCallsDegradeToSerial) {
  std::atomic<int> count{0};
  util::parallel_for(
      8,
      [&](std::size_t) {
        // The nested loop must complete inline without deadlocking.
        util::parallel_for(16, [&](std::size_t) { count.fetch_add(1); }, 4);
      },
      2);
  EXPECT_EQ(count.load(), 8 * 16);
}

TEST(ParallelForTest, PropagatesExceptions) {
  EXPECT_THROW(
      util::parallel_for(
          64,
          [](std::size_t i) {
            if (i == 33) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(ParallelForTest, ResolveClampsToRange) {
  EXPECT_EQ(util::resolve_parallel_threads(8, 3), 3);
  EXPECT_EQ(util::resolve_parallel_threads(2, 100), 2);
  EXPECT_GE(util::resolve_parallel_threads(0, 100), 1);
}

// ------------------------------------------------- graph fast paths ------

TEST(AllPairsHopsTest, MatchesBfsOracle) {
  util::Rng rng(7);
  const auto net = random_net(60, rng);
  const Graph& g = net.graph;
  const util::Matrix<int> hops = graph::all_pairs_hops(g, 3);
  for (NodeId v = 0; v < g.num_nodes(); v += 7) {
    const graph::BfsTree tree = graph::bfs(g, v);
    for (NodeId w = 0; w < g.num_nodes(); ++w) {
      EXPECT_EQ(hops(static_cast<std::size_t>(v), static_cast<std::size_t>(w)),
                tree.hops[static_cast<std::size_t>(w)]);
    }
  }
}

TEST(AllPairsHopsTest, ThreadCountDoesNotChangeResult) {
  const Graph g = graph::make_grid(9, 7);
  const util::Matrix<int> one = graph::all_pairs_hops(g, 1);
  const util::Matrix<int> many = graph::all_pairs_hops(g, 8);
  EXPECT_TRUE(one == many);
}

TEST(BuildCsrTest, MatchesAdjacencyLists) {
  const Graph g = graph::make_grid(5, 6);
  const graph::CsrAdjacency adj = graph::build_csr(g);
  ASSERT_EQ(adj.offset.size(), static_cast<std::size_t>(g.num_nodes()) + 1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto incs = g.incident_edges(v);
    const auto begin = static_cast<std::size_t>(adj.offset[v]);
    ASSERT_EQ(adj.offset[v + 1] - adj.offset[v],
              static_cast<int>(nbrs.size()));
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      EXPECT_EQ(adj.neighbor[begin + k], nbrs[k]);
      EXPECT_EQ(adj.incident[begin + k], incs[k]);
    }
  }
}

// ----------------------------------------------- contention determinism --

TEST(ContentionMatrixTest, ThreadCountDoesNotChangeResult) {
  util::Rng rng(11);
  const auto net = random_net(70, rng);
  const Graph& g = net.graph;
  metrics::CacheState state(g.num_nodes(), 3, 0);
  state.add(5, 0);
  state.add(9, 0);
  for (auto policy :
       {metrics::PathPolicy::kHopShortest, metrics::PathPolicy::kMinContention}) {
    const metrics::ContentionMatrix serial(g, state, policy, 1);
    const metrics::ContentionMatrix parallel(g, state, policy, 8);
    EXPECT_TRUE(serial.matrix() == parallel.matrix());  // bitwise
    EXPECT_EQ(serial.edge_costs(), parallel.edge_costs());
    EXPECT_EQ(serial.max_cost(), parallel.max_cost());
  }
}

TEST(ContentionMatrixTest, TakeMatrixStealsBuffer) {
  const Graph g = graph::make_grid(4, 4);
  const metrics::CacheState state(g.num_nodes(), 2, 0);
  metrics::ContentionMatrix contention(g, state);
  const util::Matrix<double> copy = contention.matrix();
  util::Matrix<double> taken = contention.take_matrix();
  EXPECT_TRUE(copy == taken);
  EXPECT_TRUE(contention.matrix().empty());
}

// ------------------------------------------- solver engine equivalence --

// Random ConFL instance over a connected geometric network: varying facility
// costs (some infinite), client weights (some zero), and edge scales.
confl::ConflInstance random_instance(const Graph& g, util::Rng& rng,
                                     bool weighted) {
  metrics::CacheState state(g.num_nodes(), 4, 0);
  metrics::ContentionMatrix contention(g, state);
  confl::ConflInstance instance;
  instance.network = &g;
  instance.root = static_cast<NodeId>(
      rng.uniform_int(0, g.num_nodes() - 1));
  instance.facility_cost.resize(static_cast<std::size_t>(g.num_nodes()));
  for (auto& f : instance.facility_cost) {
    f = rng.bernoulli(0.2) ? kInf : rng.uniform(0.5, 30.0);
  }
  instance.facility_cost[static_cast<std::size_t>(instance.root)] = kInf;
  instance.assign_cost = contention.take_matrix();
  instance.edge_cost = contention.take_edge_costs();
  instance.edge_scale = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.5, 3.0);
  if (weighted) {
    instance.client_weight.resize(static_cast<std::size_t>(g.num_nodes()));
    for (auto& w : instance.client_weight) {
      w = rng.bernoulli(0.15) ? 0.0 : rng.uniform(0.25, 4.0);
    }
  }
  return instance;
}

void expect_identical_solutions(const confl::ConflSolution& a,
                                const confl::ConflSolution& b) {
  EXPECT_EQ(a.open_facilities, b.open_facilities);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.tree.edges, b.tree.edges);
  EXPECT_EQ(a.rounds, b.rounds);
  // Bitwise cost equality — both engines must execute the same FP ops.
  EXPECT_EQ(a.facility_cost, b.facility_cost);
  EXPECT_EQ(a.assignment_cost, b.assignment_cost);
  EXPECT_EQ(a.tree_cost, b.tree_cost);
}

TEST(SolveConflEquivalenceTest, ActiveSetMatchesReferenceOnRandomInstances) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(8, 40));
    const auto net = random_net(n, rng);
    const Graph& g = net.graph;
    const confl::ConflInstance instance =
        random_instance(g, rng, /*weighted=*/trial % 2 == 1);

    confl::ConflOptions options;
    options.growth = trial % 3 == 0 ? confl::GrowthMode::kFixedStep
                                    : confl::GrowthMode::kEventDriven;
    options.span_threshold = static_cast<int>(rng.uniform_int(1, 4));
    if (options.growth == confl::GrowthMode::kFixedStep) {
      options.alpha_step = rng.bernoulli(0.5) ? 1.0 : 0.25;
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    const confl::ConflSolution fast = confl::solve_confl(instance, options);
    const confl::ConflSolution ref =
        test_oracle::solve_confl_reference(instance, options);
    expect_identical_solutions(fast, ref);
  }
}

// ------------------------------------------ tight-event scheduler pins --

// Dense twin of a sparse instance: every pair absent from a candidate row
// becomes an explicit +inf entry, so the dense oracle can replay it.
confl::ConflInstance dense_twin(const confl::ConflInstance& sparse) {
  const metrics::SparseContention& s = sparse.sparse_cost;
  const auto n = static_cast<std::size_t>(s.num_nodes);
  confl::ConflInstance dense = sparse;
  dense.sparse_cost = metrics::SparseContention{};
  dense.assign_cost = util::Matrix<double>(n, n, kInf);
  for (NodeId i = 0; i < s.num_nodes; ++i) {
    for (std::int64_t t = s.row_begin(i); t < s.row_end(i); ++t) {
      const NodeId j = metrics::SparseContention::col_of(
          s.packed[static_cast<std::size_t>(t)]);
      dense.assign_cost(static_cast<std::size_t>(i),
                        static_cast<std::size_t>(j)) =
          s.cost[static_cast<std::size_t>(t)];
    }
  }
  return dense;
}

// Pairs (i, j) of openable facilities whose cost is at least the client's
// cost to the root: dead from the first round, since the client freezes
// onto the root no later than the round the pair would turn tight.
std::int64_t dead_pairs_at_start(const confl::ConflInstance& dense) {
  const auto n = static_cast<std::size_t>(dense.network->num_nodes());
  const auto root = static_cast<std::size_t>(dense.root);
  std::int64_t dead = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == root || dense.facility_cost[i] == kInf) continue;
    for (std::size_t j = 0; j < n; ++j) {
      const double c = dense.assign_cost(i, j);
      if (c != kInf && c >= dense.assign_cost(root, j)) ++dead;
    }
  }
  return dead;
}

// Pins the fixed-step scheduler (windowed horizon scans, dead-pair pruning,
// γ held in the tight lists, SPAN counts from the payment walk) and the
// event-driven one to the dense oracle on contention-made instances: a
// 12×12 grid with a corner producer and a prefilled cache, so pair costs
// spread over more than 64 rounds of α = 0.25 steps (≥ 3 horizon
// extensions past the initial 16) and many pairs are dead from the start.
// Dense rows and sparse radius-2 rows (replayed on their dense twin),
// uniform and weighted clients (some with weight 0), M = 1..4. The snapped
// variant puts every cost exactly on a tightness threshold, so the
// window's upper edge and the first-tight-round search are hit exactly.
TEST(SchedulerOracleTest, ContentionInstancesMatchOracleBitwise) {
  const Graph g = graph::make_grid(12, 12);
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 0;
  problem.num_chunks = 6;
  problem.uniform_capacity = 5;
  util::Rng rng(1207);
  metrics::CacheState state(g.num_nodes(), 5, 0);
  for (int step = 0; step < 260; ++step) {
    const auto v = static_cast<NodeId>(
        rng.bounded(static_cast<std::uint64_t>(g.num_nodes())));
    const auto k = static_cast<metrics::ChunkId>(rng.bounded(5));
    if (state.can_cache(v, k)) state.add(v, k);
  }
  std::vector<double> weights(static_cast<std::size_t>(g.num_nodes()));
  for (auto& w : weights) {
    w = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.25, 3.0);
  }

  core::InstanceOptions sparse_options;
  sparse_options.contention_mode = core::ContentionMode::kSparse;
  sparse_options.contention_radius = 2;
  core::ChunkInstanceEngine sparse_engine(problem, sparse_options);

  // Contention costs are sums of integer node weights; the jittered
  // variant scales each pair by its own factor in [0.9, 1.1], so cost gaps
  // below one α-step (and pairs just under the dead-pair bound) occur too.
  // The snapped variant then moves each jittered cost c to α(k) + 1e-12
  // with k = ⌊c/0.25⌋ and α(k) built by the scheduler's repeated addition:
  // the pair turns tight exactly at round k, and at k = 16, 32, 64 its cost
  // equals the reach of the horizon window ending there.
  std::vector<double> alpha{0.0};
  auto threshold = [&alpha](std::size_t k) {
    while (alpha.size() <= k) alpha.push_back(alpha.back() + 0.25);
    return alpha[k] + 1e-12;
  };
  enum class Rows { kDense, kJittered, kSnapped, kSparse };
  int opened_runs = 0;
  for (const Rows kind :
       {Rows::kDense, Rows::kJittered, Rows::kSnapped, Rows::kSparse}) {
    const bool sparse = kind == Rows::kSparse;
    for (const bool weighted : {false, true}) {
      confl::ConflInstance instance;
      if (sparse) {
        auto built = sparse_engine.build(state, /*chunk=*/5);
        ASSERT_TRUE(built.ok());
        instance = std::move(built).value();
        ASSERT_TRUE(instance.sparse());
      } else {
        instance = core::build_chunk_instance(problem, state,
                                              core::InstanceOptions{}, 5);
      }
      if (kind == Rows::kJittered || kind == Rows::kSnapped) {
        util::Rng jitter(77);
        for (std::size_t t = 0; t < instance.assign_cost.size(); ++t) {
          instance.assign_cost.data()[t] *= jitter.uniform(0.9, 1.1);
        }
      }
      if (kind == Rows::kSnapped) {
        int on_horizon_edge = 0;
        for (std::size_t t = 0; t < instance.assign_cost.size(); ++t) {
          double& c = instance.assign_cost.data()[t];
          if (c == kInf) continue;
          const auto k = static_cast<std::size_t>(c / 0.25);
          c = threshold(k);
          if (k == 16 || k == 32 || k == 64) ++on_horizon_edge;
        }
        EXPECT_GT(on_horizon_edge, 10) << on_horizon_edge;
      }
      if (weighted) instance.client_weight = weights;
      const confl::ConflInstance twin =
          sparse ? dense_twin(instance) : instance;
      // Radius-2 rows hold only short pairs, so their dead ones sit near
      // the root; a dense row holds every far pair.
      const std::int64_t dead = dead_pairs_at_start(twin);
      EXPECT_GT(dead, sparse ? 20 : 4000) << dead;

      for (int m = 1; m <= 4; ++m) {
        for (const confl::GrowthMode mode :
             {confl::GrowthMode::kFixedStep,
              confl::GrowthMode::kEventDriven}) {
          SCOPED_TRACE(std::string(sparse                   ? "sparse r2"
                                   : kind == Rows::kDense   ? "dense"
                                   : kind == Rows::kSnapped ? "snapped"
                                                            : "jittered") +
                       (weighted ? " weighted" : " uniform") + " M=" +
                       std::to_string(m) +
                       (mode == confl::GrowthMode::kFixedStep ? " fixed"
                                                              : " event"));
          confl::ConflOptions options;
          options.growth = mode;
          options.alpha_step = 0.25;
          options.span_threshold = m;
          std::vector<double> trace;
          std::vector<double> oracle_trace;
          options.growth_trace = &trace;
          const confl::ConflSolution fast =
              confl::solve_confl(instance, options);
          options.growth_trace = &oracle_trace;
          const confl::ConflSolution oracle =
              test_oracle::solve_confl_reference(twin, options);
          expect_identical_solutions(fast, oracle);
          EXPECT_EQ(trace, oracle_trace);  // bitwise, round by round
          if (mode == confl::GrowthMode::kFixedStep) {
            EXPECT_GT(fast.rounds, 64);  // horizon 16 → 32 → 64 → 128
          }
          if (!fast.open_facilities.empty()) ++opened_runs;
        }
      }
    }
  }
  EXPECT_GE(opened_runs, 24);  // the SPAN/open path is exercised
}

TEST(SolveConflEquivalenceTest, ThreadCountDoesNotChangeSolution) {
  const Graph g = graph::make_grid(10, 10);
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 0;
  problem.num_chunks = 1;
  problem.uniform_capacity = 5;
  const metrics::CacheState state(g.num_nodes(), 5, 0);
  const confl::ConflInstance instance =
      core::build_chunk_instance(problem, state, core::InstanceOptions{});

  confl::ConflOptions options;
  options.growth = confl::GrowthMode::kEventDriven;
  options.threads = 1;
  const confl::ConflSolution serial = confl::solve_confl(instance, options);
  options.threads = 2;
  const confl::ConflSolution two = confl::solve_confl(instance, options);
  options.threads = 8;
  const confl::ConflSolution eight = confl::solve_confl(instance, options);
  expect_identical_solutions(serial, two);
  expect_identical_solutions(serial, eight);
}

// The Phase 2 Voronoi tree is identical at every thread count and across
// both solver engines.
TEST(SolveConflEquivalenceTest, VoronoiEngineThreadInvariantAndMatchesRef) {
  const Graph g = graph::make_grid(10, 10);
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 0;
  problem.num_chunks = 1;
  problem.uniform_capacity = 5;
  const metrics::CacheState state(g.num_nodes(), 5, 0);
  const confl::ConflInstance instance =
      core::build_chunk_instance(problem, state, core::InstanceOptions{});

  confl::ConflOptions options;
  options.growth = confl::GrowthMode::kEventDriven;
  options.threads = 1;
  const confl::ConflSolution serial = confl::solve_confl(instance, options);
  options.threads = 8;
  const confl::ConflSolution eight = confl::solve_confl(instance, options);
  expect_identical_solutions(serial, eight);
  const confl::ConflSolution ref =
      test_oracle::solve_confl_reference(instance, options);
  expect_identical_solutions(serial, ref);
}

// End-to-end: the full approximation pipeline is bit-deterministic across
// global thread-count settings (the strongest form of the contract).
TEST(ApproxDeterminismTest, GlobalThreadOverrideDoesNotChangePlacement) {
  const Graph g = graph::make_grid(8, 8);
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 0;
  problem.num_chunks = 3;
  problem.uniform_capacity = 4;

  auto run_with_threads = [&](int threads) {
    util::set_parallel_threads(threads);
    core::ApproxFairCaching appx;
    return appx.run(problem);
  };
  const auto one = run_with_threads(1);
  const auto two = run_with_threads(2);
  const auto eight = run_with_threads(8);
  util::set_parallel_threads(0);  // restore default

  ASSERT_EQ(one.placements.size(), two.placements.size());
  ASSERT_EQ(one.placements.size(), eight.placements.size());
  for (std::size_t c = 0; c < one.placements.size(); ++c) {
    for (const auto* other : {&two, &eight}) {
      const auto& a = one.placements[c];
      const auto& b = other->placements[c];
      EXPECT_EQ(a.cache_nodes, b.cache_nodes);
      EXPECT_EQ(a.solver_objective, b.solver_objective);  // bitwise
      EXPECT_EQ(a.solver_rounds, b.solver_rounds);
    }
  }
}

// The budgeted entry point with an unlimited budget must be bit-identical to
// the legacy run() at every thread count: the cooperative budget checks are
// side-effect-free, so the anytime layer costs nothing when no limit is set.
TEST(ApproxDeterminismTest, UnlimitedBudgetSolveMatchesRunAtAnyThreadCount) {
  const Graph g = graph::make_grid(8, 8);
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 0;
  problem.num_chunks = 3;
  problem.uniform_capacity = 4;

  core::ApproxFairCaching reference_appx;
  const auto reference = reference_appx.run(problem);

  for (int threads : {1, 2, 8}) {
    util::set_parallel_threads(threads);
    core::ApproxFairCaching appx;
    core::SolveReport report;
    auto result = appx.solve(problem, util::RunBudget(), &report);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_TRUE(report.stop_reason.ok());
    EXPECT_FALSE(report.degraded());
    EXPECT_TRUE(report.degraded_chunks.empty());

    const auto& budgeted = result.value();
    ASSERT_EQ(reference.placements.size(), budgeted.placements.size());
    for (std::size_t c = 0; c < reference.placements.size(); ++c) {
      const auto& a = reference.placements[c];
      const auto& b = budgeted.placements[c];
      EXPECT_EQ(a.cache_nodes, b.cache_nodes) << "threads=" << threads;
      EXPECT_EQ(a.solver_objective, b.solver_objective);  // bitwise
      EXPECT_EQ(a.solver_rounds, b.solver_rounds);
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(reference.state.chunks_on(v), budgeted.state.chunks_on(v));
    }
  }
  util::set_parallel_threads(0);  // restore default
}

// Builds one tree per terminal set concurrently, each worker writing only
// its own slot, at 2 and 8 threads, and expects every tree to equal the
// serial build: the construction shares no state between calls.
void expect_concurrent_trees_match_serial(
    const Graph& g, const std::vector<double>& weight,
    const std::vector<std::vector<NodeId>>& terminal_sets) {
  std::vector<steiner::SteinerTree> serial;
  for (const auto& terminals : terminal_sets) {
    serial.push_back(steiner::steiner_mst_approx(g, weight, terminals));
  }
  for (const int threads : {2, 8}) {
    std::vector<steiner::SteinerTree> parallel(terminal_sets.size());
    util::parallel_for(
        terminal_sets.size(),
        [&](std::size_t i) {
          parallel[i] =
              steiner::steiner_mst_approx(g, weight, terminal_sets[i]);
        },
        threads);
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].edges, parallel[i].edges) << "set " << i;
      EXPECT_EQ(serial[i].cost, parallel[i].cost) << "set " << i;  // bitwise
    }
  }
}

// Unit weights on a grid: every terminal pair has many equal-cost paths,
// so the trees rest entirely on the sweep's tie-breaking.
TEST(SteinerTest, ThreadCountDoesNotChangeTree) {
  const Graph g = graph::make_grid(12, 12);
  const std::vector<double> weight(static_cast<std::size_t>(g.num_edges()),
                                   1.0);
  std::vector<std::vector<NodeId>> terminal_sets(7);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    terminal_sets[static_cast<std::size_t>(v % 7)].push_back(v);
  }
  expect_concurrent_trees_match_serial(g, weight, terminal_sets);
}

TEST(SteinerTest, VoronoiEngineThreadCountDoesNotChangeTree) {
  util::Rng rng(99);
  const auto net = random_net(80, rng);
  const Graph& g = net.graph;
  std::vector<double> weight(static_cast<std::size_t>(g.num_edges()));
  for (double& w : weight) w = rng.uniform(0.2, 3.0);
  std::vector<std::vector<NodeId>> terminal_sets(5);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    terminal_sets[static_cast<std::size_t>(v % 5)].push_back(v);
  }
  expect_concurrent_trees_match_serial(g, weight, terminal_sets);
  // Never worse than twice the KMB oracle's tree (both ≤ 2·OPT, and the
  // oracle's ≥ OPT).
  for (const auto& terminals : terminal_sets) {
    const auto tree = steiner::steiner_mst_approx(g, weight, terminals);
    const auto kmb = test_oracle::kmb_steiner_tree(g, weight, terminals);
    EXPECT_LE(tree.cost, 2.0 * kmb.cost + 1e-9);
  }
}

}  // namespace
}  // namespace faircache
