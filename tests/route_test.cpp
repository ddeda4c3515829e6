// Tests for the serving route (core/route.h) and the holder index behind
// it (metrics::CacheState::holders): the index against an O(n) scan over
// the per-node lists, and every memoised route against an unmemoised scan
// over a separately synced engine — across placement mutations (insert,
// evict-oldest, retire, adopt), contention modes, and the external-policy
// serving path.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/adaptive_gradient.h"
#include "core/online.h"
#include "core/route.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "metrics/contention.h"
#include "metrics/evaluator.h"
#include "sim/serving.h"
#include "sim/workload.h"
#include "util/rng.h"

namespace faircache {
namespace {

using core::ContentionMode;
using core::FetchDecision;
using graph::Graph;
using graph::NodeId;
using metrics::CacheState;
using metrics::ChunkId;

core::FairCachingProblem make_problem(const Graph& g, NodeId producer,
                                      int chunks, int capacity) {
  core::FairCachingProblem problem;
  problem.network = &g;
  problem.producer = producer;
  problem.num_chunks = chunks;
  problem.uniform_capacity = capacity;
  return problem;
}

// ---------------------------------------------------------------- oracles

// The holder set recomputed from the per-node lists.
std::vector<NodeId> scan_holders(const CacheState& state, ChunkId chunk) {
  std::vector<NodeId> holders;
  for (NodeId v = 0; v < state.num_nodes(); ++v) {
    if (v != state.producer() && state.holds(v, chunk)) holders.push_back(v);
  }
  return holders;
}

void expect_index_matches(const CacheState& state, int max_chunk,
                          const std::string& where) {
  ASSERT_TRUE(state.verify_integrity().ok()) << where;
  for (ChunkId c = 0; c <= max_chunk; ++c) {
    ASSERT_EQ(state.holders(c), scan_holders(state, c))
        << where << ", chunk " << c;
  }
}

// The documented route without a memo: holders ascending, a new source
// only on strict <, the producer only when strictly cheaper. `engine` must
// be synced to `state`; `inf_pairs` counts holder costs of kInfCost.
FetchDecision scan_route(const core::ChunkInstanceEngine& engine,
                         const CacheState& state, NodeId requester,
                         ChunkId chunk, long* inf_pairs = nullptr) {
  FetchDecision decision;
  if (requester == state.producer() || state.holds(requester, chunk)) {
    decision.source = requester;
    decision.local = true;
    decision.from_producer = requester == state.producer();
    return decision;
  }
  for (NodeId i : scan_holders(state, chunk)) {
    const double c = engine.query_cost(i, requester);
    if (inf_pairs != nullptr && c == graph::kInfCost) ++*inf_pairs;
    if (decision.source == graph::kInvalidNode || c < decision.cost) {
      decision.source = i;
      decision.cost = c;
    }
  }
  const double producer_cost = engine.query_cost(state.producer(), requester);
  if (decision.source == graph::kInvalidNode ||
      producer_cost < decision.cost) {
    decision.source = state.producer();
    decision.cost = producer_cost;
  }
  decision.from_producer = decision.source == state.producer();
  return decision;
}

// The access-cost loop OnlineFairCaching used before it summed routes: a
// min over holders + producer for every j but the producer, j ascending.
double scan_access_cost(const core::ChunkInstanceEngine& engine,
                        const CacheState& state, ChunkId chunk) {
  std::vector<NodeId> sources = scan_holders(state, chunk);
  sources.push_back(state.producer());
  double total = 0.0;
  for (NodeId j = 0; j < state.num_nodes(); ++j) {
    if (j == state.producer()) continue;
    double best = graph::kInfCost;
    for (NodeId i : sources) best = std::min(best, engine.query_cost(i, j));
    total += best;
  }
  return total;
}

bool same_decision(const FetchDecision& a, const FetchDecision& b) {
  return a.source == b.source &&
         std::bit_cast<std::uint64_t>(a.cost) ==
             std::bit_cast<std::uint64_t>(b.cost) &&
         a.local == b.local && a.from_producer == b.from_producer;
}

// ------------------------------------------------------------ holder index

TEST(HolderIndexTest, RandomMutationsMatchScanOracle) {
  constexpr int kNodes = 12;
  constexpr int kChunks = 8;
  util::Rng rng(0x1d3);
  CacheState state(kNodes, 3, /*producer=*/5);
  CacheState other(kNodes, 3, /*producer=*/5);
  for (int step = 0; step < 2000; ++step) {
    const auto op = rng.bounded(10);
    const auto v = static_cast<NodeId>(rng.bounded(kNodes));
    const auto c = static_cast<ChunkId>(rng.bounded(kChunks));
    if (op < 5) {
      if (state.can_cache(v, c)) state.add(v, c);
    } else if (op < 8) {
      if (state.holds(v, c)) state.remove(v, c);
    } else if (op == 8) {
      // Copy, then diverge: the copy's index must not alias the source's.
      CacheState copy = state;
      const std::vector<NodeId> before = state.holders(c);
      for (NodeId u = 0; u < kNodes; ++u) {
        if (copy.can_cache(u, c)) copy.add(u, c);
      }
      ASSERT_EQ(state.holders(c), before) << "step " << step;
      expect_index_matches(copy, kChunks, "copy at step " +
                                              std::to_string(step));
      other = copy;
    } else {
      // Assign over a state with a different history.
      std::swap(state, other);
    }
    expect_index_matches(state, kChunks, "step " + std::to_string(step));
  }
  // Ids never stored, past the index or negative, have no holders.
  EXPECT_TRUE(state.holders(kChunks + 100).empty());
  EXPECT_TRUE(state.holders(-1).empty());
  EXPECT_THROW(state.add(0, -1), util::CheckError);
}

TEST(HolderIndexTest, OnlineLifecycleMatchesScanOracle) {
  // Inserts with evict-oldest replacement, retires and adopts: every
  // mutation path of OnlineFairCaching keeps the index exact.
  const Graph g = graph::make_grid(4, 4);
  const auto problem = make_problem(g, 5, 0, 1);
  core::OnlineConfig config;
  config.replacement = core::ReplacementPolicy::kEvictOldest;
  config.approx.confl.span_threshold = 2;
  core::OnlineFairCaching online(problem, config);
  constexpr int kIds = 14;
  std::set<ChunkId> published;
  util::Rng rng(77);
  for (int step = 0; step < 120; ++step) {
    const auto op = rng.bounded(6);
    const auto c = static_cast<ChunkId>(rng.bounded(kIds));
    if (op < 3 && published.count(c) == 0) {
      ASSERT_TRUE(online.try_insert_chunk(c).ok());
      published.insert(c);
    } else if (op < 5 && published.count(c) != 0) {
      online.retire_chunk(c);
      published.erase(c);
    } else if (op == 5) {
      CacheState adopted = problem.make_initial_state();
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const auto chunk = static_cast<ChunkId>(rng.bounded(kIds));
        if (rng.bernoulli(0.5) && adopted.can_cache(v, chunk)) {
          adopted.add(v, chunk);
          published.insert(chunk);
        }
      }
      ASSERT_TRUE(online.adopt_placement(adopted).ok());
    }
    ASSERT_TRUE(online.verify_consistency().ok()) << "step " << step;
    expect_index_matches(online.state(), kIds, "step " + std::to_string(step));
  }
  EXPECT_GT(online.total_evictions(), 0);
}

// -------------------------------------------------------------- route memo

struct RouteCase {
  const char* name;
  ContentionMode mode;
  int radius;
};

// gtest would otherwise print the raw bytes of `name` — a load address that
// changes from run to run — into the discovered test name.
void PrintTo(const RouteCase& param, std::ostream* os) { *os << param.name; }

class RouteMemoTest : public ::testing::TestWithParam<RouteCase> {};

TEST_P(RouteMemoTest, MemoisedRouteEqualsScanOracle) {
  const RouteCase& param = GetParam();
  const Graph g = graph::make_grid(5, 5);
  const auto problem = make_problem(g, 0, 0, 2);
  core::OnlineConfig config;
  config.replacement = core::ReplacementPolicy::kEvictOldest;
  config.approx.confl.span_threshold = 2;
  config.approx.instance.contention_mode = param.mode;
  config.approx.instance.contention_radius = param.radius;
  core::OnlineFairCaching online(problem, config);
  core::ChunkInstanceEngine oracle(problem, config.approx.instance);

  constexpr int kIds = 12;
  std::set<ChunkId> published;
  util::Rng rng(0xfe7c);
  long checked = 0;
  long inf_pairs = 0;
  for (int step = 0; step < 60; ++step) {
    const auto op = rng.bounded(8);
    const auto c = static_cast<ChunkId>(rng.bounded(kIds));
    if (op < 4 && published.count(c) == 0) {
      ASSERT_TRUE(online.try_insert_chunk(c).ok());
      published.insert(c);
    } else if (op < 6 && published.count(c) != 0) {
      online.retire_chunk(c);
      published.erase(c);
    } else if (op == 6) {
      CacheState adopted = problem.make_initial_state();
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const auto chunk = static_cast<ChunkId>(rng.bounded(kIds));
        if (adopted.can_cache(v, chunk)) {
          adopted.add(v, chunk);
          published.insert(chunk);
        }
      }
      ASSERT_TRUE(online.adopt_placement(adopted).ok());
    }
    // op == 7: no mutation — the memo must keep serving the same routes.
    ASSERT_TRUE(oracle.sync(online.state()).ok());

    // Twice over the same pairs: the second pass is served from the memo.
    for (int pass = 0; pass < 2; ++pass) {
      util::Rng pairs(static_cast<std::uint64_t>(step));
      for (int k = 0; k < 40; ++k) {
        const auto requester = static_cast<NodeId>(pairs.bounded(25));
        const auto chunk = static_cast<ChunkId>(pairs.bounded(kIds));
        const FetchDecision got = online.fetch(requester, chunk);
        const FetchDecision want = scan_route(oracle, online.state(),
                                              requester, chunk, &inf_pairs);
        ASSERT_TRUE(same_decision(got, want))
            << param.name << " step " << step << " pass " << pass << " ("
            << requester << ", " << chunk << "): got " << got.source << "/"
            << got.cost << ", want " << want.source << "/" << want.cost;
        ++checked;
      }
    }
    // access_cost sums the shared route and stays bit-identical to the
    // min-over-sources loop it replaced.
    const auto chunk = static_cast<ChunkId>(rng.bounded(kIds));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(online.access_cost(chunk)),
              std::bit_cast<std::uint64_t>(
                  scan_access_cost(oracle, online.state(), chunk)))
        << param.name << " step " << step << " chunk " << chunk;
  }
  EXPECT_EQ(checked, 60 * 2 * 40);
  EXPECT_GT(online.total_evictions(), 0);
  EXPECT_EQ(online.contention_mode_used(), param.mode);
  if (param.radius > 0) {
    // Holders beyond the radius answer kInfCost and must lose to the
    // producer's full row, never be picked.
    EXPECT_GT(inf_pairs, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RouteMemoTest,
    ::testing::Values(RouteCase{"incremental", ContentionMode::kIncremental, 0},
                      RouteCase{"rebuild", ContentionMode::kRebuild, 0},
                      RouteCase{"sparse_radius1", ContentionMode::kSparse, 1},
                      RouteCase{"sparse_full", ContentionMode::kSparse, 0}),
    [](const ::testing::TestParamInfo<RouteCase>& info) {
      return std::string(info.param.name);
    });

TEST(RouteTest, InvalidateResyncsAndRefreshesRoutes) {
  const Graph g = graph::make_path(8);
  const auto problem = make_problem(g, 0, 1, 2);
  core::ChunkInstanceEngine engine(problem, core::InstanceOptions{});
  CacheState state = problem.make_initial_state();
  core::Router router;
  const auto before = router.route(engine, state, 7, 0);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before.value().from_producer);

  state.add(6, 0);
  router.invalidate();
  const auto after = router.route(engine, state, 7, 0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().source, 6);
  EXPECT_FALSE(after.value().from_producer);
  EXPECT_LT(after.value().cost, before.value().cost);
}

TEST(RouteTest, RejectsNegativeChunkAndMismatchedState) {
  const Graph g = graph::make_grid(3, 3);
  const auto problem = make_problem(g, 0, 2, 2);
  core::ChunkInstanceEngine engine(problem, core::InstanceOptions{});
  const CacheState state = problem.make_initial_state();
  core::Router router;
  EXPECT_EQ(router.route(engine, state, 4, -1).code(),
            util::StatusCode::kInvalidInput);
  const CacheState wrong(4, 2, /*producer=*/0);
  EXPECT_EQ(router.route(engine, wrong, 3, 0).code(),
            util::StatusCode::kInvalidInput);
  EXPECT_TRUE(router.route(engine, state, 4, 0).ok());
}

// ------------------------------------------------- evaluator cross-layer

// The evaluator's access phase and the serving Router are one definition
// of the cheapest source: for every (chunk, requester) of a placement, the
// Router's source and cost equal the evaluator's assignment and the
// contention cost of that assignment, and the routed costs sum to the
// evaluator's access cost bit for bit.
void expect_router_matches_evaluator(const core::FairCachingProblem& problem,
                                     const CacheState& state,
                                     const std::string& where) {
  const Graph& g = *problem.network;
  metrics::EvaluatorOptions options;
  options.num_chunks = problem.num_chunks;
  const metrics::PlacementEvaluation eval =
      metrics::evaluate_placement(g, state, options);
  const metrics::ContentionMatrix contention(g, state);
  core::ChunkInstanceEngine engine(problem, core::InstanceOptions{});
  core::Router router;
  for (ChunkId c = 0; c < problem.num_chunks; ++c) {
    const metrics::ChunkEvaluation& ce =
        eval.per_chunk[static_cast<std::size_t>(c)];
    double access = 0.0;
    for (NodeId j = 0; j < g.num_nodes(); ++j) {
      const auto routed = router.route(engine, state, j, c);
      ASSERT_TRUE(routed.ok()) << where;
      const NodeId want = ce.assignment[static_cast<std::size_t>(j)];
      ASSERT_EQ(routed.value().source, want)
          << where << ", chunk " << c << ", requester " << j;
      const double want_cost = j == want ? 0.0 : contention.cost(want, j);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(routed.value().cost),
                std::bit_cast<std::uint64_t>(want_cost))
          << where << ", chunk " << c << ", requester " << j;
      if (j != problem.producer) access += routed.value().cost;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(access),
              std::bit_cast<std::uint64_t>(ce.access_cost))
        << where << ", chunk " << c;
  }
}

// Connects every component of `g` to node 0's component.
void stitch_components(Graph& g) {
  const std::vector<int> labels = g.component_labels();
  std::set<int> joined = {labels[0]};
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    if (joined.insert(labels[static_cast<std::size_t>(v)]).second) {
      g.add_edge(0, v);
    }
  }
}

TEST(RouteTest, RouterMatchesEvaluatorOnSolvedPlacements) {
  Graph grid = graph::make_grid(6, 6);
  util::Rng rng(0xe7a1);
  Graph er = graph::make_erdos_renyi(48, 0.08, rng);
  stitch_components(er);
  for (const auto& [name, g, producer] :
       {std::tuple<const char*, const Graph*, NodeId>{"grid6", &grid, 0},
        std::tuple<const char*, const Graph*, NodeId>{"grid6_center", &grid,
                                                      14},
        std::tuple<const char*, const Graph*, NodeId>{"er48", &er, 3}}) {
    const auto problem = make_problem(*g, producer, 4, 3);
    const core::FairCachingResult solved =
        core::ApproxFairCaching().run(problem);
    expect_router_matches_evaluator(problem, solved.state, name);
  }
}

TEST(RouteTest, RouterMatchesEvaluatorOnProducerHolderTie) {
  // Producer 0 has degree 2 and an empty store: weight 2·(1+0) = 2.
  // Holder 3 has degree 1 and one stored chunk: weight 1·(1+1) = 2. So
  // requester 1 reaches both at the same cost, c(0,1) = c(3,1) = 2 + w_1.
  // The Router keeps the holder; the producer wins only when strictly
  // cheaper.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  const auto problem = make_problem(g, 0, 1, 1);
  CacheState state = problem.make_initial_state();
  state.add(3, 0);
  const metrics::ContentionMatrix contention(g, state);
  ASSERT_EQ(contention.cost(0, 1), contention.cost(3, 1));
  expect_router_matches_evaluator(problem, state, "tie");
  metrics::EvaluatorOptions options;
  options.num_chunks = 1;
  EXPECT_EQ(metrics::evaluate_placement(g, state, options)
                .per_chunk[0]
                .assignment[1],
            3);
}

// ------------------------------------------------- external-policy serving

TEST(RouteTest, ExternalPolicyServingMatchesScanOracle) {
  // ServingEngine::run routes an external policy's requests through the
  // shared Router. Replay the same request stream here (same rng stream,
  // demand model, drift and period cadences), route every request with the
  // unmemoised oracle over a fresh engine, and require identical totals —
  // the windowed cost sum in the engine's order, bit for bit.
  const Graph g = graph::make_grid(5, 5);
  const auto problem = make_problem(g, 0, 6, 2);
  sim::ServingConfig config;
  config.requests = 6000;
  config.samples = 6;
  config.drift_every = 1500;
  config.adapt_every = 250;
  config.seed = 0xada;

  baselines::AdaptiveGradientCaching policy(problem);
  sim::ServingEngine engine(problem, config);
  const auto served = engine.run(&policy);
  ASSERT_TRUE(served.ok()) << served.status().to_string();
  const sim::ServingTotals& t = served.value().totals;

  util::Rng rng(config.seed);
  const int n = g.num_nodes();
  std::vector<double> activity(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    const double a = rng.uniform(config.min_activity, config.max_activity);
    activity[static_cast<std::size_t>(v)] = v == problem.producer ? 0 : a;
  }
  const sim::ZipfDistribution zipf(problem.num_chunks, config.zipf_exponent);
  std::vector<int> rank(static_cast<std::size_t>(problem.num_chunks));
  std::iota(rank.begin(), rank.end(), 0);
  std::optional<sim::TraceSampler> sampler;
  const auto rebuild = [&] {
    sim::DemandMatrix demand(static_cast<std::size_t>(problem.num_chunks),
                             std::vector<double>(activity.size(), 0.0));
    for (int c = 0; c < problem.num_chunks; ++c) {
      const double pop = zipf.pmf(rank[static_cast<std::size_t>(c)]) *
                         static_cast<double>(problem.num_chunks);
      for (std::size_t v = 0; v < activity.size(); ++v) {
        demand[static_cast<std::size_t>(c)][v] = activity[v] * pop;
      }
    }
    sampler.emplace(demand);
  };
  rebuild();

  baselines::AdaptiveGradientCaching replica(problem);
  core::ChunkInstanceEngine oracle(problem, config.online.approx.instance);
  long local = 0, relay = 0, producer = 0;
  double window_cost = 0.0, total_cost = 0.0;
  const long per_window = config.requests / config.samples;
  for (long r = 0; r < config.requests; ++r) {
    if (r > 0 && r % config.drift_every == 0) {
      rng.shuffle(rank);
      rebuild();
    }
    if (r > 0 && r % config.adapt_every == 0) replica.end_period();
    const sim::Request request = sampler->draw(rng);
    replica.observe(request);
    ASSERT_TRUE(oracle.sync(replica.state()).ok());
    const FetchDecision d =
        scan_route(oracle, replica.state(), request.node, request.chunk);
    if (d.local) {
      ++local;
    } else if (!d.from_producer) {
      ++relay;
    } else {
      ++producer;
    }
    window_cost += d.cost;
    if ((r + 1) % per_window == 0) {
      total_cost += window_cost;
      window_cost = 0.0;
    }
  }
  EXPECT_EQ(t.hits_local, local);
  EXPECT_EQ(t.hits_relay, relay);
  EXPECT_EQ(t.producer_fetches, producer);
  EXPECT_GT(relay, 0);  // the policy's placement actually serves requests
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.total_cost),
            std::bit_cast<std::uint64_t>(total_cost));
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(served.value().state.chunks_on(v), replica.state().chunks_on(v));
  }
}

}  // namespace
}  // namespace faircache
