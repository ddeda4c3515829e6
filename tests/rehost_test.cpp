// Tests for the greedy re-hosting kernel (core/rehost.h) against the dense
// hop-matrix row scan it replaced (tests/rehost_oracle.h):
//   * ball-pruned gains, nearest-copy tables and greedy sequences equal the
//     oracle's on ER and grid graphs with dead nodes, disconnected
//     components, full-capacity nodes and sparse radii 1–3;
//   * the visit-stamp generation survives a wrap of its counter;
//   * the anytime fallback, dense and sparse, equals the oracle's sets;
//   * PlacementRepairEngine equals an oracle replay of the whole pass —
//     report and placement — at 1/2/4 threads under kLocal and
//     kLocalThenResolve, including work-unit budgets that truncate it
//     mid-local-pass.

#include "core/rehost.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "confl/confl.h"
#include "core/approx.h"
#include "core/instance_builder.h"
#include "core/repair.h"
#include "graph/generators.h"
#include "rehost_oracle.h"
#include "util/deadline.h"
#include "util/rng.h"

namespace faircache {
namespace {

using core::GreedyRehoster;
using core::RehostScratch;
using graph::Graph;
using graph::NodeId;

// Two disjoint grids side by side: every instance built on it has a
// component the sources may not reach.
Graph two_grids(int rows, int cols) {
  const Graph a = graph::make_grid(rows, cols);
  Graph g(2 * a.num_nodes());
  for (const graph::Edge& e : a.edges()) {
    g.add_edge(e.u, e.v);
    g.add_edge(e.u + a.num_nodes(), e.v + a.num_nodes());
  }
  return g;
}

Graph random_graph(int trial, util::Rng& rng) {
  switch (trial % 3) {
    case 0: {
      const int n = static_cast<int>(rng.uniform_int(30, 90));
      // Mean degree 1.5–4: sparse enough to split into components.
      const double degree =
          1.5 + 2.5 * static_cast<double>(rng.bounded(100)) / 100.0;
      return graph::make_erdos_renyi(n, degree / (n - 1), rng);
    }
    case 1:
      return graph::make_grid(static_cast<int>(rng.uniform_int(3, 9)),
                              static_cast<int>(rng.uniform_int(3, 9)));
    default:
      return two_grids(static_cast<int>(rng.uniform_int(2, 6)),
                       static_cast<int>(rng.uniform_int(3, 6)));
  }
}

// ------------------------------------------------------ kernel vs oracle --

TEST(RehostKernelTest, GainsAndGreedySequenceMatchRowScanOracle) {
  util::Rng rng(2024);
  int unreachable_candidates = 0;
  int full_nodes = 0;
  int dead_nodes = 0;
  int steps = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Graph g = random_graph(trial, rng);
    const int n = g.num_nodes();
    const int radius = trial % 4;  // 0 = unbounded
    std::vector<char> alive(static_cast<std::size_t>(n), 1);
    std::vector<int> capacities(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      if (rng.bounded(100) < 15) alive[static_cast<std::size_t>(v)] = 0;
      capacities[static_cast<std::size_t>(v)] =
          static_cast<int>(rng.bounded(3));  // 0 = full from the start
    }
    const auto producer = static_cast<NodeId>(rng.bounded(n));
    metrics::CacheState state(capacities, producer);
    std::vector<NodeId> sources = {producer};  // may be dead: skipped
    for (NodeId v = 0; v < n; ++v) {
      if (rng.bounded(100) < 6) sources.push_back(v);
    }
    const bool use_mask = trial % 5 != 4;
    const std::vector<char>* mask = use_mask ? &alive : nullptr;

    GreedyRehoster kernel(g, mask, radius, 1 + trial % 3);
    kernel.seed(sources);
    const test_oracle::Hops hops = test_oracle::alive_hops(g, mask);
    std::vector<int> nearest = test_oracle::nearest_copy(hops, sources, mask);
    ASSERT_EQ(kernel.nearest(), nearest) << "trial " << trial;

    RehostScratch scratch(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) {
      const int reach = nearest[static_cast<std::size_t>(v)];
      if (!test_oracle::alive_at(mask, v)) {
        ++dead_nodes;
        continue;
      }
      if (state.full(v)) ++full_nodes;
      if (reach == graph::kUnreachable) ++unreachable_candidates;
      if (reach == 0 || reach == graph::kUnreachable) continue;
      ASSERT_EQ(kernel.gain(v, scratch),
                test_oracle::row_gain(hops, nearest, v, radius))
          << "trial " << trial << " node " << v;
    }

    for (int step = 0;; ++step) {
      const NodeId got = kernel.best(state, 0);
      const NodeId want =
          test_oracle::best_candidate(hops, nearest, mask, state, 0, radius);
      ASSERT_EQ(got, want) << "trial " << trial << " step " << step;
      if (got == graph::kInvalidNode) break;
      state.add(got, 0);  // may fill the node: can_cache moves too
      kernel.add_copy(got);
      test_oracle::add_copy(hops, nearest, got);
      ASSERT_EQ(kernel.nearest(), nearest)
          << "trial " << trial << " step " << step;
      ++steps;
    }
  }
  // The sweep really covered what it claims to.
  EXPECT_GT(unreachable_candidates, 0);
  EXPECT_GT(full_nodes, 0);
  EXPECT_GT(dead_nodes, 0);
  EXPECT_GT(steps, 60);
}

TEST(RehostKernelTest, DeadNodesNeverRelayOrHost) {
  // Path 0-1-2-3-4 with node 2 dead: 3 and 4 are cut off from the copy on
  // 0, so they are neither clients nor candidates, and 2 never hosts.
  const Graph g = graph::make_path(5);
  const std::vector<char> alive = {1, 1, 0, 1, 1};
  GreedyRehoster kernel(g, &alive, 0, 1);
  const std::vector<NodeId> sources = {0, 2};
  kernel.seed(sources);
  EXPECT_EQ(kernel.nearest(),
            (std::vector<int>{0, 1, graph::kUnreachable, graph::kUnreachable,
                              graph::kUnreachable}));
  metrics::CacheState state(5, 1, 0);
  // Only node 1 is a candidate, and its gain is 1 − 1 = 0.
  EXPECT_EQ(kernel.best(state, 0), graph::kInvalidNode);
}

// ----------------------------------------------------- stamp generation --

TEST(RehostScratchTest, GenerationWrapClearsStampsAndRestarts) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  RehostScratch scratch(4, kMax - 1);
  EXPECT_EQ(scratch.next_generation(), kMax);
  EXPECT_EQ(scratch.next_generation(), 1u);
  EXPECT_EQ(scratch.next_generation(), 2u);
}

TEST(RehostScratchTest, GainsStayExactAcrossTheGenerationWrap) {
  // A scratch that starts one ball short of the counter limit: the wrap
  // lands on the second ball. Candidates alternate between the two ends of
  // a path with a copy on each end, so the second ball covers nodes the
  // first never stamped — a stale or colliding stamp would hide them.
  const int n = 30;
  const Graph g = graph::make_path(n);
  GreedyRehoster kernel(g, nullptr, 0, 1);
  const std::vector<NodeId> sources = {0, n - 1};
  kernel.seed(sources);
  const test_oracle::Hops hops = test_oracle::alive_hops(g, nullptr);
  const std::vector<int> nearest =
      test_oracle::nearest_copy(hops, sources, nullptr);
  RehostScratch scratch(static_cast<std::size_t>(n),
                        std::numeric_limits<std::uint32_t>::max() - 1);
  for (NodeId i = 1; i < n / 2; ++i) {
    for (const NodeId v : {i, n - 1 - i}) {
      ASSERT_EQ(kernel.gain(v, scratch),
                test_oracle::row_gain(hops, nearest, v, 0))
          << "node " << v;
    }
  }
  EXPECT_LT(scratch.generation(), 100u);  // it wrapped
}

// ------------------------------------------------------ anytime fallback --

TEST(RehostFallbackTest, DenseAndSparseFallbackMatchOracle) {
  util::Rng rng(19);
  const Graph g = graph::make_watts_strogatz(80, 4, 0.05, rng);
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = 0;
  problem.num_chunks = 4;
  problem.uniform_capacity = 2;
  for (const core::ContentionMode mode :
       {core::ContentionMode::kIncremental, core::ContentionMode::kSparse}) {
    for (const int radius : {0, 2}) {
      // A dense run ignores the radius: its fallback is unbounded.
      const int oracle_radius =
          mode == core::ContentionMode::kSparse ? radius : 0;
      const std::vector<std::vector<NodeId>> want =
          test_oracle::fallback_sets(problem, oracle_radius);
      for (const int threads : {1, 3}) {
        core::ApproxConfig config;
        config.instance.contention_mode = mode;
        config.instance.contention_radius = radius;
        config.instance.threads = threads;
        core::ApproxFairCaching algorithm(config);
        core::SolveReport report;
        auto result = algorithm.solve(
            problem, util::RunBudget::wall_clock(0.0), &report);
        ASSERT_TRUE(result.ok());
        ASSERT_EQ(static_cast<int>(report.degraded_chunks.size()),
                  problem.num_chunks);
        ASSERT_EQ(result.value().placements.size(), want.size());
        for (std::size_t c = 0; c < want.size(); ++c) {
          EXPECT_EQ(result.value().placements[c].cache_nodes, want[c])
              << "radius " << radius << " threads " << threads
              << " chunk " << c;
        }
      }
    }
  }
}

// --------------------------------------------------- repair oracle replay --

// The repair pass as it ran on the dense alive-aware hop matrix: the same
// phases, work-unit charges and stop labels as PlacementRepairEngine, with
// every local gain taken from a full matrix row.
core::RepairReport oracle_repair(const Graph& g,
                                 const std::vector<char>& alive,
                                 int num_chunks, metrics::CacheState& state,
                                 const core::RepairOptions& options,
                                 const util::RunBudget& budget) {
  using util::Status;
  core::RepairReport report;
  const int n = g.num_nodes();
  const NodeId producer = state.producer();
  auto charge = [&](std::uint64_t units) {
    report.work_units += units;
    budget.charge(units);
  };
  auto finish = [&](Status stop, int chunks_left) {
    report.stop_reason = std::move(stop);
    report.chunks_unrepaired += chunks_left;
    return report;
  };

  std::vector<int> lost(static_cast<std::size_t>(num_chunks), 0);
  for (NodeId v = 0; v < n; ++v) {
    if (alive[static_cast<std::size_t>(v)]) continue;
    const std::vector<metrics::ChunkId> held = state.chunks_on(v);
    for (metrics::ChunkId c : held) {
      state.remove(v, c);
      ++lost[static_cast<std::size_t>(c)];
      ++report.replicas_lost;
    }
  }
  std::vector<metrics::ChunkId> affected;
  for (metrics::ChunkId c = 0; c < num_chunks; ++c) {
    if (lost[static_cast<std::size_t>(c)] > 0) affected.push_back(c);
  }
  report.chunks_affected = static_cast<int>(affected.size());
  const test_oracle::Hops hops = test_oracle::alive_hops(g, &alive);
  auto nearest_of = [&](metrics::ChunkId c) {
    std::vector<NodeId> sources = state.holders(c);
    sources.push_back(producer);
    return test_oracle::nearest_copy(hops, sources, &alive);
  };
  for (metrics::ChunkId c = 0; c < num_chunks; ++c) {
    const std::vector<int> nearest = nearest_of(c);
    for (NodeId j = 0; j < n; ++j) {
      if (j != producer && alive[static_cast<std::size_t>(j)] &&
          nearest[static_cast<std::size_t>(j)] == graph::kUnreachable) {
        ++report.unservable_pairs;
      }
    }
  }
  charge(static_cast<std::uint64_t>(num_chunks));

  if (affected.empty() || options.level == core::RepairLevel::kEvictOnly) {
    return finish(Status(), options.level == core::RepairLevel::kEvictOnly
                                ? report.chunks_affected
                                : 0);
  }
  if (budget.expired()) {
    return finish(budget.status("repair detection"), report.chunks_affected);
  }
  charge(static_cast<std::uint64_t>(n));
  if (budget.expired()) {
    return finish(budget.status("repair local setup"),
                  report.chunks_affected);
  }

  std::vector<metrics::ChunkId> escalate;
  for (std::size_t next = 0; next < affected.size(); ++next) {
    const metrics::ChunkId c = affected[next];
    const int left = static_cast<int>(affected.size() - next);
    if (budget.expired()) {
      return finish(budget.status("repair local pass"), left);
    }
    std::vector<int> nearest = nearest_of(c);
    int restored = 0;
    while (restored < lost[static_cast<std::size_t>(c)]) {
      charge(static_cast<std::uint64_t>(n));
      if (budget.expired()) {
        return finish(budget.status("repair local pass"), left);
      }
      const NodeId v =
          test_oracle::best_candidate(hops, nearest, &alive, state, c, 0);
      if (v == graph::kInvalidNode) break;
      state.add(v, c);
      ++restored;
      ++report.replicas_restored;
      test_oracle::add_copy(hops, nearest, v);
    }
    if (restored >= lost[static_cast<std::size_t>(c)]) {
      ++report.chunks_local;
    } else if (options.level == core::RepairLevel::kLocalThenResolve) {
      escalate.push_back(c);
    } else {
      ++report.chunks_unrepaired;
    }
  }

  // Escalation: the engine's per-chunk re-solve, step for step.
  for (std::size_t e = 0; e < escalate.size(); ++e) {
    const metrics::ChunkId c = escalate[e];
    const int left = static_cast<int>(escalate.size() - e);
    charge(static_cast<std::uint64_t>(n));
    if (budget.expired()) {
      return finish(budget.status("repair escalation"), left);
    }
    core::AliveComponent component =
        core::induce_alive_component(g, alive, state);
    for (NodeId v = 0; v < component.state.num_nodes(); ++v) {
      if (component.state.holds(v, c)) component.state.remove(v, c);
    }
    core::FairCachingProblem sub_problem;
    sub_problem.network = &component.sub.graph;
    sub_problem.producer = component.state.producer();
    sub_problem.num_chunks = num_chunks;
    for (NodeId v = 0; v < component.state.num_nodes(); ++v) {
      sub_problem.capacities.push_back(component.state.capacity(v));
    }
    core::InstanceOptions instance_options = options.approx.instance;
    instance_options.demand = nullptr;
    core::ChunkInstanceEngine engine(sub_problem, instance_options);
    auto instance = engine.build(component.state, c);
    report.guard.merge(engine.guard_report());
    EXPECT_TRUE(instance.ok());
    auto solution = confl::try_solve_confl(instance.value(),
                                           options.approx.confl, budget);
    if (!solution.ok()) {
      if (budget.expired()) {
        return finish(budget.status("repair escalation"), left);
      }
      ++report.chunks_unrepaired;
      continue;
    }
    const int before = static_cast<int>(state.holders(c).size());
    for (NodeId v = 0; v < component.state.num_nodes(); ++v) {
      const NodeId orig =
          component.sub.to_original[static_cast<std::size_t>(v)];
      if (state.holds(orig, c)) state.remove(orig, c);
    }
    for (NodeId v : solution.value().open_facilities) {
      const NodeId orig =
          component.sub.to_original[static_cast<std::size_t>(v)];
      if (state.can_cache(orig, c)) state.add(orig, c);
    }
    report.replicas_restored +=
        static_cast<int>(state.holders(c).size()) - before;
    ++report.chunks_resolved;
  }
  return finish(Status(), 0);
}

void expect_same_report(const core::RepairReport& got,
                        const core::RepairReport& want,
                        const std::string& where) {
  EXPECT_EQ(got.stop_reason.code(), want.stop_reason.code()) << where;
  EXPECT_EQ(got.stop_reason.message(), want.stop_reason.message()) << where;
  EXPECT_EQ(got.replicas_lost, want.replicas_lost) << where;
  EXPECT_EQ(got.replicas_restored, want.replicas_restored) << where;
  EXPECT_EQ(got.chunks_affected, want.chunks_affected) << where;
  EXPECT_EQ(got.chunks_local, want.chunks_local) << where;
  EXPECT_EQ(got.chunks_resolved, want.chunks_resolved) << where;
  EXPECT_EQ(got.chunks_unrepaired, want.chunks_unrepaired) << where;
  EXPECT_EQ(got.unservable_pairs, want.unservable_pairs) << where;
  EXPECT_EQ(got.work_units, want.work_units) << where;
}

void expect_same_state(const metrics::CacheState& got,
                       const metrics::CacheState& want,
                       const std::string& where) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes()) << where;
  for (NodeId v = 0; v < got.num_nodes(); ++v) {
    ASSERT_EQ(got.chunks_on(v), want.chunks_on(v)) << where << " node " << v;
  }
}

struct RepairFixture {
  Graph g;
  int num_chunks = 0;
  metrics::CacheState solved;
  std::vector<char> alive;
};

// A solved ER placement with ~20% of the non-producer nodes and every
// holder of chunk 0 departed. A dense graph leaves some lost replicas with
// no positive local gain, so they escalate.
RepairFixture departed_er(std::uint64_t seed, double p) {
  RepairFixture f;
  util::Rng rng(seed);
  do {
    f.g = graph::make_erdos_renyi(70, p, rng);
  } while (!f.g.is_connected());
  f.num_chunks = 4;
  core::FairCachingProblem problem;
  problem.network = &f.g;
  problem.producer = 0;
  problem.num_chunks = f.num_chunks;
  problem.uniform_capacity = 2;
  f.solved = core::ApproxFairCaching().run(problem).state;
  f.alive.assign(static_cast<std::size_t>(f.g.num_nodes()), 1);
  for (NodeId v = 1; v < f.g.num_nodes(); ++v) {
    if (rng.bounded(100) < 20) f.alive[static_cast<std::size_t>(v)] = 0;
  }
  for (NodeId v : f.solved.holders(0)) {
    f.alive[static_cast<std::size_t>(v)] = 0;
  }
  return f;
}

TEST(RepairOracleReplayTest, ReportAndPlacementMatchOracleUnderBudgets) {
  std::set<std::string> stops;
  int resolved = 0;
  for (const auto& [seed, p] : {std::pair<std::uint64_t, double>{3, 0.07},
                                std::pair<std::uint64_t, double>{11, 0.25}}) {
    const RepairFixture f = departed_er(seed, p);
    const int n = f.g.num_nodes();
    std::uint64_t full_work = 0;
    {
      metrics::CacheState state = f.solved;
      const auto full = core::PlacementRepairEngine().repair(
          f.g, f.alive, f.num_chunks, state);
      ASSERT_TRUE(full.ok());
      full_work = full.value().work_units;
    }
    ASSERT_GT(full_work, static_cast<std::uint64_t>(f.num_chunks + 2 * n));
    std::vector<std::uint64_t> caps;
    for (std::uint64_t cap = 0; cap <= full_work + 1; cap += n / 3) {
      caps.push_back(cap);
    }
    caps.push_back(util::kNoWorkCap);
    for (const core::RepairLevel level :
         {core::RepairLevel::kLocal, core::RepairLevel::kLocalThenResolve}) {
      core::RepairOptions options;
      options.level = level;
      for (const std::uint64_t cap : caps) {
        metrics::CacheState want_state = f.solved;
        const core::RepairReport want =
            oracle_repair(f.g, f.alive, f.num_chunks, want_state, options,
                          util::RunBudget::work_units(cap));
        stops.insert(want.stop_reason.message());
        resolved += want.chunks_resolved;
        for (const int threads : {1, 2, 4}) {
          core::RepairOptions threaded = options;
          threaded.approx.instance.threads = threads;
          threaded.approx.confl.threads = threads;
          metrics::CacheState state = f.solved;
          const auto got = core::PlacementRepairEngine(threaded).repair(
              f.g, f.alive, f.num_chunks, state,
              util::RunBudget::work_units(cap));
          ASSERT_TRUE(got.ok());
          const std::string where =
              "seed " + std::to_string(seed) + " level " +
              std::to_string(static_cast<int>(level)) + " cap " +
              std::to_string(cap) + " threads " + std::to_string(threads);
          expect_same_report(got.value(), want, where);
          expect_same_state(state, want_state, where);
        }
      }
    }
  }
  // The caps truncated the pass in every phase, mid-local-pass included,
  // and the unlimited kLocalThenResolve runs escalated.
  bool mid_local = false;
  bool setup = false;
  for (const std::string& s : stops) {
    mid_local |= s.find("repair local pass") != std::string::npos;
    setup |= s.find("repair local setup") != std::string::npos;
  }
  EXPECT_TRUE(mid_local);
  EXPECT_TRUE(setup);
  EXPECT_GT(resolved, 0);
}

}  // namespace
}  // namespace faircache
