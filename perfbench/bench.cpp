// Repository benchmark (perfbench/README.md has the workloads, the
// metric tables and the layer -> end-to-end predictions).
//
//   faircache_perfbench --workload <name> --seed <n> --seconds <s>
//                       --trace <0|1> [--smoke] [--git-sha <sha>]
//   faircache_perfbench --self-test
//
// Each workload is one closed-loop sequential caller in one process with a
// fixed library thread count. An untraced run (--trace 0) times whole calls
// into the library and reports the end-to-end metrics. A traced run
// (--trace 1) first runs one untraced reference pass, then drives the same
// work through the layers' public functions from this file, timing every
// call, and reports the per-layer metrics with their coverage (timed layer
// calls / traced wall time) and the tracing overhead (traced wall time -
// untraced wall time). Every pass checks its outputs, and the
// deterministic counters and hashes of every pass must equal the first
// pass's. The last line on stdout is one JSON object; the exit code is
// non-zero when any check failed.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/approx.h"
#include "core/online.h"
#include "core/repair.h"
#include "core/validate.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "metrics/contention.h"
#include "metrics/evaluator.h"
#include "metrics/fairness_stats.h"
#include "sim/churn.h"
#include "sim/serving.h"
#include "sim/workload.h"
#include "steiner/steiner.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace faircache;
using Clock = std::chrono::steady_clock;
using graph::NodeId;
using metrics::ChunkId;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------ metric names

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Reported by every untraced run, on every workload (BENCHMARK.json
// "end_to_end").
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       // median set-up slot of the run
    {"run_s", "s"},         // median wall time of one workload pass
    {"peak_rss_mb", "MB"},  // process high-water mark
    {"cost", "cost"},       // the workload's placement cost (README)
    {"gini", "ratio"},      // Gini coefficient of final stored counts
};

// Reported by every traced run, on every workload (BENCHMARK.json
// "per_layer"); a layer the workload does not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    // Whole calls into a layer, from the traced run's untraced pass.
    {"core.solve_s", "s"},
    {"core.solver_objective", "cost"},
    {"core.repair_s", "s"},
    {"metrics.placement_cost", "cost"},
    {"metrics.repaired_cost", "cost"},
    {"sim.serve_rps", "1/s"},
    {"sim.mean_fetch_cost", "cost"},
    {"sim.producer_share", "ratio"},
    // The benchmark-driven chunk loop.
    {"confl.solve_s", "s"},
    {"confl.growth_rounds", "count"},
    {"confl.open_facilities", "count"},
    {"metrics.contention_full_build_s", "s"},
    {"metrics.contention_delta_build_s", "s"},
    {"metrics.contention_pairs", "count"},
    {"steiner.tree_s", "s"},
    {"steiner.tree_edges", "count"},
    {"core.reclaim_s", "s"},
    // Evaluation and repair.
    {"metrics.contention_matrix_s", "s"},
    {"metrics.evaluate_s", "s"},
    {"core.repair_pass_s_p50", "s"},
    {"core.repair_pass_s_max", "s"},
    {"core.repair_detect_s", "s"},
    {"core.repair_local_s", "s"},
    {"core.repair_resolve_s", "s"},
    {"core.repair_work_units", "count"},
    {"core.replicas_restored", "count"},
    {"core.chunks_resolved", "count"},
    {"core.induce_component_s", "s"},
    // Serving.
    {"sim.trace_draw_ns_p50", "ns"},
    {"sim.sampler_build_s", "s"},
    {"core.fetch_ns_p50", "ns"},
    {"core.fetch_ns_p999", "ns"},
    {"metrics.holders_ns_p50", "ns"},
    {"core.query_cost_ns", "ns"},
    {"core.fetch_candidates", "count"},
    {"core.query_sync_s", "s"},
    {"core.insert_ms_p50", "ms"},
    {"core.insert_ms_max", "ms"},
    {"core.evictions", "count"},
    {"core.reopt_solve_s_p50", "s"},
    {"core.reopt_solve_s_max", "s"},
    {"core.adopt_ms_p50", "ms"},
    {"core.reopt_degraded_chunks", "count"},
    // Set-up.
    {"graph.generate_s", "s"},
    {"sim.churn_plan_s", "s"},
    // The trace itself.
    {"trace.coverage", "ratio"},
    {"trace.crosscheck_s", "s"},
    {"trace.overhead_s", "s"},
};

// Unit of a per-layer metric; nullptr for a name kPerLayer does not list.
const char* per_layer_unit(const std::string& name) {
  for (const MetricSpec& spec : kPerLayer) {
    if (name == spec.name) return spec.unit;
  }
  return nullptr;
}

using MetricMap = std::map<std::string, double>;

// ------------------------------------------------------------ statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// Nearest-rank quantile, q in (0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

// ------------------------------------------------------------ checks

// Failed output checks of one invocation. Any failure makes the run
// report correct=false and exit non-zero.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    failures_.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  void expect_ok(const util::Status& status, const std::string& what) {
    expect(status.ok(), what + ": " + status.to_string());
  }
  bool ok() const { return failures_.empty(); }

 private:
  std::vector<std::string> failures_;
};

// The placement checker applied to every state a workload produces: the
// library's placement rules (capacity, producer, chunk range, duplicates,
// holder aliveness) plus the state's structural self-check.
util::Status check_placement(const metrics::CacheState& state, int chunks,
                             const std::vector<char>* alive = nullptr) {
  if (util::Status status = core::validate_placement(state, chunks, alive);
      !status.ok()) {
    return status;
  }
  return state.verify_integrity();
}

// Every request is served exactly once: locally, by a peer or by the
// producer.
bool serving_accounts_balance(const sim::ServingTotals& totals,
                              long requests) {
  return totals.hits_local + totals.hits_relay + totals.producer_fetches ==
             requests &&
         totals.requests == requests;
}

// Deterministic counters and hashes of one pass, in a fixed order.
using Fingerprint = std::vector<std::pair<std::string, std::uint64_t>>;

void expect_same_fingerprint(Checks& checks, const Fingerprint& expected,
                             const Fingerprint& got, const std::string& what) {
  if (expected.size() != got.size()) {
    checks.expect(false, what + ": fingerprint shape differs");
    return;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    checks.expect(expected[i] == got[i],
                  what + ": " + expected[i].first + " differs between passes");
  }
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  template <typename T>
  void add(T value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  }
};

std::uint64_t placement_hash(const metrics::CacheState& state) {
  Fnv fnv;
  for (NodeId v = 0; v < state.num_nodes(); ++v) {
    fnv.add(v);
    for (ChunkId c : state.chunks_on(v)) fnv.add(c);
  }
  return fnv.h;
}

// ------------------------------------------------------------ tracing

// Per-layer timing of one traced pass. Every call this file makes into a
// layer's public function goes through time() or sample(), which add the
// call's duration to the caller's accumulator. A call the workload's own
// work makes counts toward coverage. A call the benchmark adds only to
// cross-check or break down that work (a Steiner re-run, a recomputed
// route, a chunk loop beside the real solve) is kCrossCheck: it is kept
// out of both sides of the coverage and reported as trace.crosscheck_s.
enum class Calls { kWorkload, kCrossCheck };

class LayerTrace {
 public:
  template <typename F>
  decltype(auto) time(double& seconds, F&& call,
                      Calls calls = Calls::kWorkload) {
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
      call();
      record(seconds, since(start), calls);
    } else {
      decltype(auto) result = call();
      record(seconds, since(start), calls);
      return result;
    }
  }

  // time() for a call whose individual duration is kept in `samples`.
  template <typename F>
  auto sample(std::vector<double>& samples, F&& call,
              Calls calls = Calls::kWorkload) {
    double seconds = 0.0;
    auto result = time(seconds, call, calls);
    samples.push_back(seconds);
    return result;
  }

  // Share of the pass's wall time, outside the cross-check calls, spent in
  // timed layer calls.
  double coverage(double wall_seconds) const {
    return covered_ / (wall_seconds - cross_check_);
  }
  double cross_check_seconds() const { return cross_check_; }
  MetricMap values;

 private:
  void record(double& seconds, double elapsed, Calls calls) {
    seconds += elapsed;
    (calls == Calls::kWorkload ? covered_ : cross_check_) += elapsed;
  }
  double covered_ = 0.0;
  double cross_check_ = 0.0;
};

// ------------------------------------------------------------ inputs

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x100000001b3ULL + stream;
  return util::splitmix64(state);
}

// Connected ER G(n, 6/n), built the way bench/abl_sparse builds it: stray
// components are linked to component 0's representative.
graph::Graph make_connected_er(int n, util::Rng& rng) {
  graph::Graph g = graph::make_erdos_renyi(n, 6.0 / n, rng);
  const std::vector<int> labels = g.component_labels();
  const int components = *std::max_element(labels.begin(), labels.end()) + 1;
  std::vector<NodeId> rep(static_cast<std::size_t>(components),
                          graph::kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    NodeId& r = rep[static_cast<std::size_t>(
        labels[static_cast<std::size_t>(v)])];
    if (r == graph::kInvalidNode) r = v;
  }
  for (int c = 1; c < components; ++c) {
    g.add_edge(rep[0], rep[static_cast<std::size_t>(c)]);
  }
  return g;
}

// Instance record in the style of pasl's print_graph_debug_info: size,
// mean degree and a mean hop count sampled by BFS from evenly spaced
// sources.
void print_graph_record(const graph::Graph& g) {
  constexpr int kSources = 16;
  const int n = g.num_nodes();
  std::vector<int> hops(static_cast<std::size_t>(n));
  std::vector<NodeId> queue;
  long long total = 0;
  long long pairs = 0;
  for (NodeId src = 0; src < n; src += std::max(1, n / kSources)) {
    graph::bfs_hops(g, src, hops.data(), queue);
    for (int h : hops) {
      if (h == graph::kUnreachable) continue;
      total += h;
      ++pairs;
    }
  }
  std::printf("# graph nodes=%d edges=%d mean_degree=%.3f "
              "sampled_mean_hops=%.3f (BFS from %d sources)\n",
              n, g.num_edges(), 2.0 * g.num_edges() / n,
              pairs == 0 ? 0.0 : static_cast<double>(total) / pairs,
              kSources);
}

// ------------------------------------------------------------ chunk loop

struct ChunkLoopResult {
  metrics::CacheState state;
  std::vector<core::ChunkPlacement> placements;
};

// The chunk loop of ApproxFairCaching::solve, driven from here so that each
// layer call is timed: ChunkInstanceEngine::build (metrics contention
// build), try_solve_confl (confl), a re-run of the Phase 2 Steiner tree on
// the instance's edge costs (steiner), reclaim, then the same state.add
// steps as solve(). It stops where solve() would hand the remaining chunks
// to its greedy fallback (budget expiry), so its placements must equal
// solve()'s ConFL placements bit for bit. `calls` says whether the loop is
// the workload's solve or a breakdown run beside the real one.
ChunkLoopResult traced_chunk_loop(const core::FairCachingProblem& problem,
                                  const core::ApproxConfig& config,
                                  const util::RunBudget& budget, Calls calls,
                                  LayerTrace& trace, Checks& checks) {
  MetricMap& m = trace.values;
  ChunkLoopResult out{problem.make_initial_state(), {}};
  core::ChunkInstanceEngine engine(problem, config.instance);
  for (ChunkId chunk = 0; chunk < problem.num_chunks; ++chunk) {
    if (budget.expired()) break;
    const double tree_seconds_before = engine.stats().tree_seconds;
    double build_seconds = 0.0;
    util::Result<confl::ConflInstance> built =
        trace.time(build_seconds,
                   [&] { return engine.build(out.state, chunk); }, calls);
    m[engine.stats().tree_seconds > tree_seconds_before
          ? "metrics.contention_full_build_s"
          : "metrics.contention_delta_build_s"] += build_seconds;
    if (!built.ok()) {
      checks.expect_ok(built.status(), "ChunkInstanceEngine::build");
      break;
    }
    confl::ConflInstance instance = std::move(built).value();
    m["metrics.contention_pairs"] += static_cast<double>(
        instance.sparse() ? instance.sparse_cost.packed.size()
                          : instance.assign_cost.rows() *
                                instance.assign_cost.cols());

    util::Result<confl::ConflSolution> solved =
        trace.time(m["confl.solve_s"], [&] {
          return confl::try_solve_confl(instance, config.confl, budget);
        }, calls);
    if (!solved.ok()) {
      if (!budget.expired()) {
        checks.expect_ok(solved.status(), "try_solve_confl");
      }
      break;
    }
    const confl::ConflSolution& solution = solved.value();
    m["confl.growth_rounds"] += solution.rounds;
    m["confl.open_facilities"] +=
        static_cast<double>(solution.open_facilities.size());

    if (!solution.open_facilities.empty()) {
      std::vector<NodeId> terminals = solution.open_facilities;
      terminals.push_back(instance.root);
      util::Result<steiner::SteinerTree> tree =
          trace.time(m["steiner.tree_s"], [&] {
            return steiner::try_steiner_mst_approx(
                *instance.network, instance.edge_cost, std::move(terminals),
                config.confl.threads, {}, config.confl.steiner_engine);
          }, Calls::kCrossCheck);
      const double expected = solution.tree_cost / instance.edge_scale;
      checks.expect(tree.ok() && std::abs(tree.value().cost - expected) <=
                                     1e-9 * std::max(1.0, expected),
                    "Steiner re-run cost equals tree_cost / edge_scale");
      if (tree.ok()) {
        m["steiner.tree_edges"] +=
            static_cast<double>(tree.value().edges.size());
      }
    }
    trace.time(m["core.reclaim_s"],
               [&] { engine.reclaim(std::move(instance)); }, calls);

    core::ChunkPlacement placement;
    placement.chunk = chunk;
    placement.solver_objective = solution.total();
    placement.solver_rounds = solution.rounds;
    for (NodeId v : solution.open_facilities) {
      if (out.state.can_cache(v, chunk)) {
        out.state.add(v, chunk);
        placement.cache_nodes.push_back(v);
      }
    }
    out.placements.push_back(std::move(placement));
  }
  return out;
}

double total_objective(const std::vector<core::ChunkPlacement>& placements) {
  double total = 0.0;
  for (const core::ChunkPlacement& p : placements) total += p.solver_objective;
  return total;
}

long total_rounds(const std::vector<core::ChunkPlacement>& placements) {
  long total = 0;
  for (const core::ChunkPlacement& p : placements) total += p.solver_rounds;
  return total;
}

// ------------------------------------------------------------ workloads

struct PassOutcome {
  double cost = 0.0;
  double gini = 0.0;
  long attempted = 0;
  long failed = 0;
  Fingerprint fingerprint;
  MetricMap stages;  // whole-call layer metrics (kPerLayer names)
};

class Workload {
 public:
  virtual ~Workload() = default;
  // (Re)builds every input from the seed: graph, problem, churn plan,
  // serving configuration. Timed as setup_s; `stages` receives the time of
  // its layer calls (graph.generate_s, sim.churn_plan_s).
  virtual void setup(std::uint64_t seed, MetricMap& stages) = 0;
  virtual void print_record() const = 0;
  // One untraced pass: whole calls into the library.
  virtual PassOutcome run(Checks& checks) = 0;
  // One traced pass: the same work through the layers' public functions.
  virtual PassOutcome run_traced(Checks& checks, LayerTrace& trace) = 0;
};

// place-er100k: one sparse-engine solve of a 100k-node ER network.
class PlaceWorkload final : public Workload {
 public:
  explicit PlaceWorkload(bool smoke)
      : nodes_(smoke ? 2000 : 100000), chunks_(smoke ? 3 : 5) {
    config_.instance.contention_mode = core::ContentionMode::kSparse;
    config_.instance.contention_radius = 2;
  }

  void setup(std::uint64_t seed, MetricMap& stages) override {
    util::Rng rng(derive_seed(seed, 1));
    const Clock::time_point start = Clock::now();
    graph_ = make_connected_er(nodes_, rng);
    stages["graph.generate_s"] = since(start);
    problem_ = core::FairCachingProblem{};
    problem_.network = &graph_;
    problem_.producer = 0;
    problem_.num_chunks = chunks_;
    problem_.uniform_capacity = 5;
  }

  void print_record() const override {
    print_graph_record(graph_);
    std::printf("# problem chunks=%d capacity=%d contention=sparse radius=%d "
                "budget=unlimited\n",
                chunks_, problem_.uniform_capacity,
                config_.instance.contention_radius);
  }

  PassOutcome run(Checks& checks) override {
    core::ApproxFairCaching algorithm(config_);
    core::SolveReport report;
    const Clock::time_point start = Clock::now();
    util::Result<core::FairCachingResult> result =
        algorithm.solve(problem_, util::RunBudget::unlimited(), &report);
    const double solve_seconds = since(start);
    PassOutcome out;
    out.attempted = chunks_;
    if (!result.ok()) {
      checks.expect_ok(result.status(), "ApproxFairCaching::solve");
      out.failed = chunks_;
      return out;
    }
    const core::FairCachingResult& solved = result.value();
    checks.expect_ok(check_placement(solved.state, chunks_),
                     "solved placement");
    checks.expect(report.chunks_solved() == chunks_,
                  "chunks_solved == Q under an unlimited budget");
    out.failed = static_cast<long>(report.degraded_chunks.size());
    out.cost = total_objective(solved.placements);
    out.gini = metrics::gini_coefficient(solved.state.stored_counts());
    out.fingerprint = fingerprint(solved.state, solved.placements);
    out.stages["core.solve_s"] = solve_seconds;
    out.stages["core.solver_objective"] = out.cost;
    return out;
  }

  PassOutcome run_traced(Checks& checks, LayerTrace& trace) override {
    const ChunkLoopResult loop =
        traced_chunk_loop(problem_, config_, util::RunBudget::unlimited(),
                          Calls::kWorkload, trace, checks);
    checks.expect_ok(check_placement(loop.state, chunks_),
                     "chunk-loop placement");
    PassOutcome out;
    out.attempted = chunks_;
    out.failed = chunks_ - static_cast<long>(loop.placements.size());
    out.cost = total_objective(loop.placements);
    out.gini = metrics::gini_coefficient(loop.state.stored_counts());
    out.fingerprint = fingerprint(loop.state, loop.placements);
    return out;
  }

 private:
  static Fingerprint fingerprint(
      const metrics::CacheState& state,
      const std::vector<core::ChunkPlacement>& placements) {
    return {{"placement_hash", placement_hash(state)},
            {"growth_rounds",
             static_cast<std::uint64_t>(total_rounds(placements))},
            {"solver_objective_bits", bits_of(total_objective(placements))},
            {"chunks_placed", placements.size()}};
  }

  int nodes_;
  int chunks_;
  core::ApproxConfig config_;
  graph::Graph graph_;
  core::FairCachingProblem problem_;
};

// lifecycle-er3k: solve, evaluate, departure waves each repaired, then the
// repaired alive component evaluated — all on the default dense engines.
class LifecycleWorkload final : public Workload {
 public:
  explicit LifecycleWorkload(bool smoke)
      : nodes_(smoke ? 300 : 3000),
        chunks_(smoke ? 4 : 8),
        waves_(smoke ? 3 : 8),
        per_wave_(smoke ? 10 : 30) {}

  void setup(std::uint64_t seed, MetricMap& stages) override {
    util::Rng rng(derive_seed(seed, 2));
    Clock::time_point start = Clock::now();
    graph_ = make_connected_er(nodes_, rng);
    stages["graph.generate_s"] = since(start);
    problem_ = core::FairCachingProblem{};
    problem_.network = &graph_;
    problem_.producer = 0;
    problem_.num_chunks = chunks_;
    problem_.uniform_capacity = 5;
    start = Clock::now();
    sim::ChurnSimulator churn(
        graph_, sim::make_departure_waves(nodes_, problem_.producer, waves_,
                                          per_wave_, /*period=*/1,
                                          derive_seed(seed, 3)));
    snapshots_.clear();
    alive_.clear();
    for (int w = 0; w < waves_; ++w) {
      churn.advance();
      snapshots_.push_back(churn.snapshot());
      alive_.push_back(churn.alive());
    }
    stages["sim.churn_plan_s"] = since(start);
  }

  void print_record() const override {
    print_graph_record(graph_);
    std::printf("# problem chunks=%d capacity=%d contention=dense-incremental "
                "waves=%d departures_per_wave=%d\n",
                chunks_, problem_.uniform_capacity, waves_, per_wave_);
  }

  PassOutcome run(Checks& checks) override {
    PassOutcome out;
    out.attempted = chunks_ + waves_;
    core::ApproxFairCaching algorithm;
    core::SolveReport report;
    Clock::time_point start = Clock::now();
    util::Result<core::FairCachingResult> result =
        algorithm.solve(problem_, util::RunBudget::unlimited(), &report);
    out.stages["core.solve_s"] = since(start);
    if (!result.ok()) {
      checks.expect_ok(result.status(), "ApproxFairCaching::solve");
      out.failed = out.attempted;
      return out;
    }
    checks.expect(report.chunks_solved() == chunks_,
                  "chunks_solved == Q under an unlimited budget");
    out.failed += static_cast<long>(report.degraded_chunks.size());
    metrics::CacheState state = result.value().state;
    checks.expect_ok(check_placement(state, chunks_), "solved placement");
    Counters counters;
    counters.solve_hash = placement_hash(state);
    counters.rounds = total_rounds(result.value().placements);
    out.stages["core.solver_objective"] =
        total_objective(result.value().placements);

    start = Clock::now();
    counters.placement_cost =
        metrics::evaluate_placement(graph_, state, eval_options()).total();
    double evaluate_seconds = since(start);

    core::PlacementRepairEngine repairer;
    double repair_seconds = 0.0;
    for (int w = 0; w < waves_; ++w) {
      start = Clock::now();
      util::Result<core::RepairReport> repaired = repairer.repair(
          snapshots_[static_cast<std::size_t>(w)],
          alive_[static_cast<std::size_t>(w)], chunks_, state);
      repair_seconds += since(start);
      out.failed += account_repair(checks, repaired, state, w, counters);
    }

    start = Clock::now();
    const core::AliveComponent component =
        core::induce_alive_component(snapshots_.back(), alive_.back(), state);
    counters.repaired_cost = metrics::evaluate_placement(
        component.sub.graph, component.state, eval_options()).total();
    evaluate_seconds += since(start);

    out.stages["core.repair_s"] = repair_seconds;
    out.stages["metrics.evaluate_s"] = evaluate_seconds;
    finish(out, counters, state, component);
    return out;
  }

  PassOutcome run_traced(Checks& checks, LayerTrace& trace) override {
    MetricMap& m = trace.values;
    PassOutcome out;
    out.attempted = chunks_ + waves_;
    ChunkLoopResult loop = traced_chunk_loop(
        problem_, core::ApproxConfig{}, util::RunBudget::unlimited(),
        Calls::kWorkload, trace, checks);
    out.failed += chunks_ - static_cast<long>(loop.placements.size());
    metrics::CacheState& state = loop.state;
    checks.expect_ok(check_placement(state, chunks_), "chunk-loop placement");
    Counters counters;
    counters.solve_hash = placement_hash(state);
    counters.rounds = total_rounds(loop.placements);

    // The evaluator's dense contention matrix on the final state, timed
    // on its own beside the evaluator, then the evaluator itself.
    trace.time(m["metrics.contention_matrix_s"], [&] {
      return metrics::ContentionMatrix(graph_, state).max_cost();
    }, Calls::kCrossCheck);
    counters.placement_cost = trace.time(m["metrics.evaluate_s"], [&] {
      return metrics::evaluate_placement(graph_, state, eval_options()).total();
    });

    core::PlacementRepairEngine repairer;
    std::vector<double> pass_seconds;
    for (int w = 0; w < waves_; ++w) {
      util::Result<core::RepairReport> repaired =
          trace.sample(pass_seconds, [&] {
            return repairer.repair(snapshots_[static_cast<std::size_t>(w)],
                                   alive_[static_cast<std::size_t>(w)],
                                   chunks_, state);
          });
      if (repaired.ok()) {
        // The pass's own phase clocks (core/repair.h).
        m["core.repair_detect_s"] += repaired.value().detect_seconds;
        m["core.repair_local_s"] += repaired.value().local_seconds;
        m["core.repair_resolve_s"] += repaired.value().resolve_seconds;
      }
      out.failed += account_repair(checks, repaired, state, w, counters);
    }
    const core::AliveComponent component =
        trace.time(m["core.induce_component_s"], [&] {
          return core::induce_alive_component(snapshots_.back(),
                                              alive_.back(), state);
        });
    counters.repaired_cost = trace.time(m["metrics.evaluate_s"], [&] {
      return metrics::evaluate_placement(component.sub.graph, component.state,
                                         eval_options())
          .total();
    });

    m["core.repair_pass_s_p50"] = median(pass_seconds);
    m["core.repair_pass_s_max"] = max_of(pass_seconds);
    m["core.repair_work_units"] = static_cast<double>(counters.work_units);
    m["core.replicas_restored"] = counters.restored;
    m["core.chunks_resolved"] = counters.resolved;
    finish(out, counters, state, component);
    return out;
  }

 private:
  struct Counters {
    std::uint64_t solve_hash = 0;
    long rounds = 0;
    double placement_cost = 0.0;
    double repaired_cost = 0.0;
    std::uint64_t work_units = 0;
    long restored = 0;
    long resolved = 0;
  };

  metrics::EvaluatorOptions eval_options() const {
    metrics::EvaluatorOptions options;
    options.num_chunks = chunks_;
    return options;
  }

  // Checks one repair pass and folds its counters in; returns 1 for an
  // incomplete or failed pass.
  long account_repair(Checks& checks,
                      const util::Result<core::RepairReport>& repaired,
                      const metrics::CacheState& state, int wave,
                      Counters& counters) const {
    const std::string what = "repair pass " + std::to_string(wave + 1);
    if (!repaired.ok()) {
      checks.expect_ok(repaired.status(), what);
      return 1;
    }
    checks.expect_ok(check_placement(state, chunks_,
                                     &alive_[static_cast<std::size_t>(wave)]),
                     what + " placement");
    counters.work_units += repaired.value().work_units;
    counters.restored += repaired.value().replicas_restored;
    counters.resolved += repaired.value().chunks_resolved;
    return repaired.value().complete() ? 0 : 1;
  }

  void finish(PassOutcome& out, const Counters& counters,
              const metrics::CacheState& state,
              const core::AliveComponent& component) const {
    out.cost = counters.repaired_cost;
    out.gini = metrics::gini_coefficient(component.state.stored_counts());
    out.stages["metrics.placement_cost"] = counters.placement_cost;
    out.stages["metrics.repaired_cost"] = counters.repaired_cost;
    out.fingerprint = {
        {"solve_placement_hash", counters.solve_hash},
        {"growth_rounds", static_cast<std::uint64_t>(counters.rounds)},
        {"placement_cost_bits", bits_of(counters.placement_cost)},
        {"repair_work_units", counters.work_units},
        {"replicas_restored", static_cast<std::uint64_t>(counters.restored)},
        {"chunks_resolved", static_cast<std::uint64_t>(counters.resolved)},
        {"repaired_placement_hash", placement_hash(state)},
        {"repaired_cost_bits", bits_of(counters.repaired_cost)},
    };
  }

  int nodes_;
  int chunks_;
  int waves_;
  int per_wave_;
  graph::Graph graph_;
  core::FairCachingProblem problem_;
  std::vector<graph::Graph> snapshots_;
  std::vector<std::vector<char>> alive_;
};

// serve-read / serve-write: ServingEngine replays a Zipf request stream on
// a 30x30 grid. serve-write adds drift, oldest-first eviction and budgeted
// re-optimisation ticks.
class ServeWorkload final : public Workload {
 public:
  ServeWorkload(bool smoke, bool write)
      : side_(smoke ? 8 : 30),
        chunks_(smoke ? 8 : 32),
        capacity_(smoke ? 2 : 4),
        write_(write) {
    config_.requests = smoke ? 20000 : 300000;
    config_.zipf_exponent = 0.8;
    config_.samples = 32;
    if (write_) {
      const long every = smoke ? 5000 : 20000;
      config_.drift_every = every;
      config_.reopt_every = every;
      config_.reopt_work_cap = 2000000;
      config_.online.replacement = core::ReplacementPolicy::kEvictOldest;
    }
  }

  void setup(std::uint64_t seed, MetricMap& stages) override {
    const Clock::time_point start = Clock::now();
    graph_ = graph::make_grid(side_, side_);
    stages["graph.generate_s"] = since(start);
    problem_ = core::FairCachingProblem{};
    problem_.network = &graph_;
    problem_.producer = 0;
    problem_.num_chunks = chunks_;
    problem_.uniform_capacity = capacity_;
    config_.seed = derive_seed(seed, 4);
  }

  void print_record() const override {
    print_graph_record(graph_);
    std::printf("# problem chunks=%d capacity=%d requests=%ld zipf=%.2f "
                "drift_every=%ld reopt_every=%ld reopt_work_cap=%" PRIu64
                " replacement=%s\n",
                chunks_, problem_.uniform_capacity, config_.requests,
                config_.zipf_exponent, config_.drift_every,
                config_.reopt_every,
                static_cast<std::uint64_t>(config_.reopt_work_cap),
                write_ ? "evict-oldest" : "none");
  }

  PassOutcome run(Checks& checks) override {
    sim::ServingEngine engine(problem_, config_);
    const Clock::time_point start = Clock::now();
    util::Result<sim::ServingResult> result = engine.run();
    const double seconds = since(start);
    PassOutcome out;
    out.attempted = config_.requests;
    if (!result.ok()) {
      checks.expect_ok(result.status(), "ServingEngine::run");
      out.failed = config_.requests;
      return out;
    }
    const sim::ServingResult& served = result.value();
    finish(checks, out, served);
    out.stages["sim.serve_rps"] =
        static_cast<double>(config_.requests) / seconds;
    return out;
  }

  // Replays ServingEngine::run's built-in OnlineFairCaching path request by
  // request from here (same rng stream, demand model, cadences and
  // accounting), timing each call, and cross-checks every routing decision
  // of OnlineFairCaching::fetch against one recomputed from
  // CacheState::holders and ChunkInstanceEngine::query_cost. The replica's
  // serving_result_hash must equal the untraced run's.
  PassOutcome run_traced(Checks& checks, LayerTrace& trace) override {
    MetricMap& m = trace.values;
    const int n = graph_.num_nodes();
    const long requests = config_.requests;
    util::Rng rng(config_.seed);
    const sim::ZipfDistribution zipf(chunks_, config_.zipf_exponent);
    std::vector<double> activity(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) {
      const double a = rng.uniform(config_.min_activity, config_.max_activity);
      activity[static_cast<std::size_t>(v)] = v == problem_.producer ? 0 : a;
    }
    std::vector<int> rank(static_cast<std::size_t>(chunks_));
    std::iota(rank.begin(), rank.end(), 0);
    std::optional<sim::TraceSampler> sampler;
    const auto rebuild_sampler = [&] {
      sim::DemandMatrix demand(static_cast<std::size_t>(chunks_),
                               std::vector<double>(activity.size(), 0.0));
      for (int c = 0; c < chunks_; ++c) {
        const double pop = zipf.pmf(rank[static_cast<std::size_t>(c)]) *
                           static_cast<double>(chunks_);
        for (std::size_t v = 0; v < activity.size(); ++v) {
          demand[static_cast<std::size_t>(c)][v] = activity[v] * pop;
        }
      }
      trace.time(m["sim.sampler_build_s"], [&] { sampler.emplace(demand); });
    };
    rebuild_sampler();

    core::OnlineFairCaching online(problem_, config_.online);
    core::ChunkInstanceEngine query(problem_, config_.online.approx.instance);
    bool query_dirty = true;
    std::vector<char> published(static_cast<std::size_t>(chunks_), 0);

    sim::ServingResult result;
    result.policy = "online-confl";
    const int samples =
        static_cast<int>(std::min<long>(config_.samples, requests));
    sim::ServingSample window;
    int next_sample = 0;
    long next_boundary = requests / samples;

    std::vector<double> draw_s, fetch_s, holders_s, insert_s, reopt_s, adopt_s;
    draw_s.reserve(static_cast<std::size_t>(requests));
    fetch_s.reserve(static_cast<std::size_t>(requests));
    holders_s.reserve(static_cast<std::size_t>(requests));
    double query_seconds = 0.0;
    long query_calls = 0;
    long route_mismatches = 0;

    for (long r = 0; r < requests; ++r) {
      if (config_.drift_every > 0 && r > 0 && r % config_.drift_every == 0) {
        rng.shuffle(rank);
        rebuild_sampler();
        ++result.totals.drift_events;
      }
      if (config_.reopt_every > 0 && r > 0 && r % config_.reopt_every == 0) {
        reoptimize(checks, trace, online, reopt_s, adopt_s, result.totals);
        std::fill(published.begin(), published.end(), 1);
        query_dirty = true;
      }

      const sim::Request request =
          trace.sample(draw_s, [&] { return sampler->draw(rng); });
      if (published[static_cast<std::size_t>(request.chunk)] == 0) {
        util::Result<core::OnlineStepResult> step = trace.sample(
            insert_s, [&] { return online.try_insert_chunk(request.chunk); });
        checks.expect_ok(step.ok() ? util::Status() : step.status(),
                         "OnlineFairCaching::try_insert_chunk");
        published[static_cast<std::size_t>(request.chunk)] = 1;
        ++result.totals.inserts;
        query_dirty = true;
      }
      const core::FetchDecision decision = trace.sample(
          fetch_s, [&] { return online.fetch(request.node, request.chunk); });

      if (!decision.local) {
        if (query_dirty) {
          const util::Status synced = trace.time(
              m["core.query_sync_s"],
              [&] { return query.sync(online.state()); }, Calls::kCrossCheck);
          checks.expect_ok(synced, "ChunkInstanceEngine::sync");
          query_dirty = false;
        }
        const std::vector<NodeId> holders = trace.sample(
            holders_s, [&] { return online.state().holders(request.chunk); },
            Calls::kCrossCheck);
        const auto [source, cost] = trace.time(query_seconds, [&] {
          NodeId best = graph::kInvalidNode;
          double best_cost = 0.0;
          for (NodeId i : holders) {
            const double c = query.query_cost(i, request.node);
            if (best == graph::kInvalidNode || c < best_cost) {
              best = i;
              best_cost = c;
            }
          }
          const double producer_cost =
              query.query_cost(problem_.producer, request.node);
          if (best == graph::kInvalidNode || producer_cost < best_cost) {
            best = problem_.producer;
            best_cost = producer_cost;
          }
          return std::pair<NodeId, double>{best, best_cost};
        }, Calls::kCrossCheck);
        query_calls += static_cast<long>(holders.size()) + 1;
        if (source != decision.source || cost != decision.cost) {
          ++route_mismatches;
        }
      }

      if (decision.local) {
        ++window.window_local;
      } else if (!decision.from_producer) {
        ++window.window_relay;
      } else {
        ++window.window_producer;
      }
      window.window_cost += decision.cost;
      if (r + 1 == next_boundary) {
        window.request_end = r + 1;
        const std::vector<int> counts = online.state().stored_counts();
        window.jain = metrics::jains_index(counts);
        window.gini = metrics::gini_coefficient(counts);
        window.total_stored = online.state().total_stored();
        result.totals.hits_local += window.window_local;
        result.totals.hits_relay += window.window_relay;
        result.totals.producer_fetches += window.window_producer;
        result.totals.total_cost += window.window_cost;
        result.series.push_back(window);
        window = sim::ServingSample{};
        ++next_sample;
        next_boundary = requests * static_cast<long>(next_sample + 1) / samples;
      }
    }
    checks.expect(route_mismatches == 0,
                  "fetch decisions match holders + query_cost routing (" +
                      std::to_string(route_mismatches) + " mismatches)");
    result.totals.requests = requests;
    result.totals.evictions = online.total_evictions();
    result.state = online.state();
    result.contention_mode_used = online.contention_mode_used();

    m["sim.trace_draw_ns_p50"] = 1e9 * median(draw_s);
    m["core.fetch_ns_p50"] = 1e9 * median(fetch_s);
    m["core.fetch_ns_p999"] = 1e9 * quantile(fetch_s, 0.999);
    m["metrics.holders_ns_p50"] = 1e9 * median(holders_s);
    m["core.query_cost_ns"] =
        query_calls == 0 ? 0.0 : 1e9 * query_seconds / query_calls;
    m["core.fetch_candidates"] = static_cast<double>(query_calls);
    m["core.insert_ms_p50"] = 1e3 * median(insert_s);
    m["core.insert_ms_max"] = 1e3 * max_of(insert_s);
    m["core.evictions"] = static_cast<double>(result.totals.evictions);
    m["core.reopt_solve_s_p50"] = median(reopt_s);
    m["core.reopt_solve_s_max"] = max_of(reopt_s);
    m["core.adopt_ms_p50"] = 1e3 * median(adopt_s);
    m["core.reopt_degraded_chunks"] = result.totals.degraded_chunks;

    PassOutcome out;
    out.attempted = requests;
    finish(checks, out, result);
    return out;
  }

 private:
  // One re-optimisation tick: the benchmark-driven chunk loop under the
  // tick's work-unit budget (for the layer breakdown), then the real
  // ApproxFairCaching::solve, whose ConFL placements the loop must
  // reproduce, adopted into the online placement.
  void reoptimize(Checks& checks, LayerTrace& trace,
                  core::OnlineFairCaching& online,
                  std::vector<double>& reopt_s, std::vector<double>& adopt_s,
                  sim::ServingTotals& totals) {
    const core::ApproxConfig& approx = config_.online.approx;
    const ChunkLoopResult loop = traced_chunk_loop(
        problem_, approx, util::RunBudget::work_units(config_.reopt_work_cap),
        Calls::kCrossCheck, trace, checks);
    core::ApproxFairCaching algorithm(approx);
    core::SolveReport report;
    const util::RunBudget budget =
        util::RunBudget::work_units(config_.reopt_work_cap);
    util::Result<core::FairCachingResult> solved = trace.sample(
        reopt_s, [&] { return algorithm.solve(problem_, budget, &report); });
    if (!solved.ok()) {
      checks.expect_ok(solved.status(), "re-opt ApproxFairCaching::solve");
      return;
    }
    checks.expect(static_cast<int>(loop.placements.size()) ==
                      report.chunks_solved(),
                  "re-opt chunk loop solves as many chunks as solve()");
    for (std::size_t c = 0; c < loop.placements.size() &&
                            c < solved.value().placements.size();
         ++c) {
      checks.expect(loop.placements[c].cache_nodes ==
                        solved.value().placements[c].cache_nodes,
                    "re-opt chunk loop placement equals solve()'s");
    }
    checks.expect_ok(check_placement(solved.value().state, chunks_),
                     "re-opt placement");
    checks.expect_ok(trace.sample(adopt_s,
                                  [&] {
                                    return online.adopt_placement(
                                        solved.value().state);
                                  }),
                     "OnlineFairCaching::adopt_placement");
    ++totals.reopt_ticks;
    totals.degraded_chunks += static_cast<int>(report.degraded_chunks.size());
  }

  void finish(Checks& checks, PassOutcome& out,
              const sim::ServingResult& served) const {
    const sim::ServingTotals& t = served.totals;
    checks.expect(serving_accounts_balance(t, config_.requests),
                  "local + relay + producer == requests");
    checks.expect_ok(check_placement(served.state, chunks_),
                     "final serving placement");
    const double requests = static_cast<double>(config_.requests);
    out.attempted += static_cast<long>(t.reopt_ticks) * chunks_;
    out.failed += t.degraded_chunks;
    out.cost = t.total_cost / requests;
    out.gini = metrics::gini_coefficient(served.state.stored_counts());
    out.stages["sim.mean_fetch_cost"] = out.cost;
    out.stages["sim.producer_share"] =
        static_cast<double>(t.producer_fetches) / requests;
    out.fingerprint = {
        {"serving_result_hash", sim::serving_result_hash(served)},
        {"inserts", static_cast<std::uint64_t>(t.inserts)},
        {"evictions", static_cast<std::uint64_t>(t.evictions)},
        {"reopt_ticks", static_cast<std::uint64_t>(t.reopt_ticks)},
        {"reopt_degraded_chunks",
         static_cast<std::uint64_t>(t.degraded_chunks)},
        {"final_placement_hash", placement_hash(served.state)},
    };
  }

  int side_;
  int chunks_;
  int capacity_;
  bool write_;
  sim::ServingConfig config_;
  graph::Graph graph_;
  core::FairCachingProblem problem_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, bool smoke) {
  if (name == "place-er100k") return std::make_unique<PlaceWorkload>(smoke);
  if (name == "lifecycle-er3k") {
    return std::make_unique<LifecycleWorkload>(smoke);
  }
  if (name == "serve-read") {
    return std::make_unique<ServeWorkload>(smoke, /*write=*/false);
  }
  if (name == "serve-write") {
    return std::make_unique<ServeWorkload>(smoke, /*write=*/true);
  }
  return nullptr;
}

// ------------------------------------------------------------ host record

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

int available_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return std::max(1u, std::thread::hardware_concurrency());
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------ output

void print_metric_line(const std::string& name, double value,
                       const char* unit) {
  std::printf("# metric %-34s %.6g %s\n", name.c_str(), value, unit);
}

void print_json(bool correct, long attempted, long failed,
                const std::vector<std::pair<std::string, double>>& metrics,
                const std::vector<const char*>& units) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.c_str(),
                metrics[i].second, units[i]);
  }
  std::printf("}}\n");
}

// ------------------------------------------------------------ self-test

// Negative self-test of the checker: it must reject an over-capacity
// placement, a mismatched hash and unbalanced serving accounts, and accept
// their well-formed counterparts.
int run_self_test() {
  bool ok = true;
  const auto expect = [&](bool condition, const char* what) {
    std::printf("self-test %-52s %s\n", what, condition ? "ok" : "FAILED");
    ok = ok && condition;
  };

  metrics::CacheState state(/*num_nodes=*/4, /*capacity=*/1,
                            /*producer=*/0);
  state.add(1, 0);
  expect(check_placement(state, 2).ok(), "accepts a valid placement");
  metrics::CacheState over = state;
  over.corrupt_for_testing(1, 1);  // a second chunk on a capacity-1 node
  expect(!check_placement(over, 2).ok(), "rejects an over-capacity placement");

  const Fingerprint first = {{"placement_hash", placement_hash(state)}};
  const Fingerprint same = {{"placement_hash", placement_hash(state)}};
  const Fingerprint other = {{"placement_hash", placement_hash(over)}};
  Checks accepted;
  expect_same_fingerprint(accepted, first, same, "self-test");
  expect(accepted.ok(), "accepts equal hashes");
  Checks rejected;
  expect_same_fingerprint(rejected, first, other, "self-test (expected)");
  expect(!rejected.ok(), "rejects a mismatched hash");

  sim::ServingTotals totals;
  totals.requests = 10;
  totals.hits_local = 3;
  totals.hits_relay = 3;
  totals.producer_fetches = 4;
  expect(serving_accounts_balance(totals, 10), "accepts balanced accounts");
  totals.producer_fetches = 3;
  expect(!serving_accounts_balance(totals, 10), "rejects unbalanced accounts");

  std::printf("self-test: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

// ------------------------------------------------------------ main

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string git_sha = "unknown";
};

bool parse_options(int argc, char** argv, Options& options, bool& self_test) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    char* end = nullptr;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && (v = value())) {
      options.workload = v;
    } else if (arg == "--seed" && (v = value())) {
      options.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds" && (v = value())) {
      options.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return false;
    } else if (arg == "--trace" && (v = value())) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      options.trace = v[0] == '1';
    } else if (arg == "--git-sha" && (v = value())) {
      options.git_sha = v;
    } else {
      return false;
    }
  }
  return true;
}

int run_benchmark(const Options& options) {
  std::unique_ptr<Workload> workload =
      make_workload(options.workload, options.smoke);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  const int cpus = available_cpus();
  // One fixed library thread count per run.
  const int threads = std::min(cpus, 2);
  util::set_parallel_threads(threads);
  std::printf("# host git_sha=%s compiler=\"%s\" cpu=\"%s\" nproc=%d\n",
              options.git_sha.c_str(), compiler(), cpu_model().c_str(), cpus);
  std::printf("# run workload=%s%s seed=%" PRIu64 " seconds=%g trace=%d "
              "threads=%d\n",
              options.workload.c_str(), options.smoke ? " (smoke)" : "",
              options.seed, options.seconds, options.trace ? 1 : 0, threads);

  // Set-up is timed in slots of back-to-back set-ups lasting kSetupSlot:
  // one before the first pass and one after every pass, so the slots are
  // spread over the run as the passes are. A slot reports its mean set-up,
  // and setup_s is the median over slots. On a shared host the speed of
  // memory-bound code such as set-up flips between two modes ~1.5x apart,
  // each lasting seconds to minutes; a single set-up lands in one mode, a
  // slot's mean blends the modes it spans. The first set-up builds the
  // inputs; each later one rebuilds the same inputs from the same seed.
  constexpr double kSetupSlot = 0.4;
  const Clock::time_point measure_start = Clock::now();
  std::vector<MetricMap> layer_samples;  // set-up stages, traced passes
  workload->setup(options.seed, layer_samples.emplace_back());
  std::vector<double> setup_seconds;
  const auto measure_setup = [&] {
    // The stage times of a slot's first set-up are kept.
    MetricMap& stages = layer_samples.emplace_back();
    MetricMap ignored;
    int setups = 0;
    const Clock::time_point start = Clock::now();
    do {
      workload->setup(options.seed, setups == 0 ? stages : ignored);
      ++setups;
    } while (since(start) < kSetupSlot);
    setup_seconds.push_back(since(start) / setups);
  };
  measure_setup();
  workload->print_record();

  Checks checks;
  long attempted = 0;
  long failed = 0;
  std::vector<PassOutcome> passes;
  std::vector<double> pass_seconds;
  const auto record = [&](PassOutcome&& outcome, double seconds,
                          const char* kind) {
    attempted += outcome.attempted;
    failed += outcome.failed;
    std::printf("# pass %zu (%s) wall_s=%.4f attempted=%ld failed=%ld",
                passes.size() + 1, kind, seconds, outcome.attempted,
                outcome.failed);
    for (const auto& [key, value] : outcome.fingerprint) {
      const bool hash = key.ends_with("_hash") || key.ends_with("_bits");
      std::printf(hash ? " %s=%016" PRIx64 : " %s=%" PRIu64, key.c_str(),
                  value);
    }
    std::printf("\n");
    if (!passes.empty()) {
      expect_same_fingerprint(checks, passes.front().fingerprint,
                              outcome.fingerprint,
                              std::string(kind) + " pass " +
                                  std::to_string(passes.size() + 1));
    }
    passes.push_back(std::move(outcome));
    pass_seconds.push_back(seconds);
  };

  // Passes run while the next one is expected to finish within --seconds,
  // counted from the start of set-up; at least one untraced pass (and, when
  // tracing, one traced pass) runs.
  const auto time_left_for = [&](double next_pass) {
    return since(measure_start) + next_pass <= options.seconds;
  };
  std::vector<double> traced_seconds;
  std::vector<double> coverage;
  std::vector<double> cross_check_seconds;
  if (!options.trace) {
    do {
      const Clock::time_point start = Clock::now();
      PassOutcome outcome = workload->run(checks);
      record(std::move(outcome), since(start), "untraced");
      measure_setup();
    } while (time_left_for(pass_seconds.back()));
  } else {
    const Clock::time_point start = Clock::now();
    PassOutcome reference = workload->run(checks);
    record(std::move(reference), since(start), "untraced reference");
    measure_setup();
    do {
      LayerTrace trace;
      const Clock::time_point traced_start = Clock::now();
      PassOutcome outcome = workload->run_traced(checks, trace);
      const double seconds = since(traced_start);
      record(std::move(outcome), seconds, "traced");
      traced_seconds.push_back(seconds);
      coverage.push_back(trace.coverage(seconds));
      cross_check_seconds.push_back(trace.cross_check_seconds());
      layer_samples.push_back(std::move(trace.values));
      measure_setup();
    } while (time_left_for(traced_seconds.back()));
  }

  std::printf("# setup slots=%zu mean_ms:", setup_seconds.size());
  for (double seconds : setup_seconds) std::printf(" %.4f", 1e3 * seconds);
  std::printf("\n");

  const PassOutcome& first = passes.front();
  if (!options.trace) {
    // Whole-call layer metrics of the first pass; traced runs report them
    // among the per-layer metrics.
    for (const auto& [key, value] : first.stages) {
      print_metric_line(key, value, per_layer_unit(key));
    }
  }

  std::vector<std::pair<std::string, double>> metrics;
  std::vector<const char*> units;
  if (!options.trace) {
    const MetricMap values = {
        {"setup_s", median(setup_seconds)},
        {"run_s", median(pass_seconds)},
        {"peak_rss_mb", peak_rss_mb()},
        {"cost", first.cost},
        {"gini", first.gini},
    };
    for (const MetricSpec& spec : kEndToEnd) {
      metrics.emplace_back(spec.name, values.at(spec.name));
      units.push_back(spec.unit);
    }
  } else {
    MetricMap values = first.stages;
    for (const MetricMap& sample : layer_samples) {
      for (const auto& [key, value] : sample) {
        checks.expect(per_layer_unit(key) != nullptr,
                      "traced metric '" + key + "' is listed in kPerLayer");
      }
    }
    // Each metric is the median over the samples that report it: set-up
    // stages over the run's set-ups, the rest over its traced passes.
    for (const MetricSpec& spec : kPerLayer) {
      std::vector<double> per_sample;
      for (const MetricMap& sample : layer_samples) {
        const auto it = sample.find(spec.name);
        if (it != sample.end()) per_sample.push_back(it->second);
      }
      if (!per_sample.empty()) values[spec.name] = median(per_sample);
    }
    values["trace.coverage"] = median(coverage);
    values["trace.crosscheck_s"] = median(cross_check_seconds);
    values["trace.overhead_s"] = median(traced_seconds) - pass_seconds.front();
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = values.find(spec.name);
      metrics.emplace_back(spec.name, it == values.end() ? 0.0 : it->second);
      units.push_back(spec.unit);
    }
  }
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    checks.expect(std::isfinite(metrics[i].second),
                  "metric " + metrics[i].first + " is finite");
    if (!std::isfinite(metrics[i].second)) metrics[i].second = 0.0;
    print_metric_line(metrics[i].first, metrics[i].second, units[i]);
  }
  print_json(checks.ok(), attempted, failed, metrics, units);
  return checks.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Options options;
  bool self_test = false;
  if (!parse_options(argc, argv, options, self_test)) {
    std::fprintf(stderr,
                 "usage: %s --workload <place-er100k|lifecycle-er3k|"
                 "serve-read|serve-write> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke] [--git-sha <sha>]\n"
                 "       %s --self-test\n",
                 argv[0], argv[0]);
    return 2;
  }
  if (self_test) return run_self_test();
  return run_benchmark(options);
}
