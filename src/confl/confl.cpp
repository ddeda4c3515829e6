#include "confl/confl.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>

#include "confl/confl_internal.h"
#include "graph/shortest_paths.h"
#include "util/parallel.h"

namespace faircache::confl {

using graph::kInfCost;
using graph::NodeId;

util::Status validate_confl_instance(const ConflInstance& instance) {
  using util::Status;
  if (instance.network == nullptr) {
    return Status::invalid_input("instance needs a network");
  }
  const int n = instance.network->num_nodes();
  if (instance.root < 0 || instance.root >= n) {
    return Status::invalid_input("root out of range");
  }
  if (static_cast<int>(instance.facility_cost.size()) != n) {
    return Status::invalid_input("facility cost size mismatch");
  }
  if (instance.sparse()) {
    if (instance.assign_cost.rows() != 0) {
      return Status::invalid_input(
          "instance sets both dense and sparse assignment costs");
    }
    const metrics::SparseContention& s = instance.sparse_cost;
    if (s.num_nodes != n) {
      return Status::invalid_input("sparse cost node count mismatch");
    }
    if (static_cast<int>(s.row_offset.size()) != n + 1) {
      return Status::invalid_input("sparse cost row offsets mismatch");
    }
    if (s.row_offset.back() !=
            static_cast<std::int64_t>(s.packed.size()) ||
        s.packed.size() != s.cost.size()) {
      return Status::invalid_input("sparse cost row data mismatch");
    }
  } else {
    if (static_cast<int>(instance.assign_cost.rows()) != n) {
      return Status::invalid_input("assignment cost rows mismatch");
    }
    if (static_cast<int>(instance.assign_cost.cols()) != n) {
      return Status::invalid_input("assignment cost columns mismatch");
    }
  }
  if (static_cast<int>(instance.edge_cost.size()) !=
      instance.network->num_edges()) {
    return Status::invalid_input("edge cost size mismatch");
  }
  if (!(instance.edge_scale > 0)) {  // rejects NaN too
    return Status::invalid_input("edge scale must be positive");
  }
  if (!instance.client_weight.empty()) {
    if (static_cast<int>(instance.client_weight.size()) != n) {
      return Status::invalid_input("client weight size mismatch");
    }
    for (double w : instance.client_weight) {
      if (!(w >= 0)) {  // rejects NaN too
        return Status::invalid_input("client weights must be non-negative");
      }
    }
  }
  return Status();
}

util::Status validate_confl_options(const ConflOptions& options) {
  using util::Status;
  if (!(options.alpha_step > 0) || !(options.beta_step > 0) ||
      !(options.gamma_step > 0)) {
    return Status::invalid_input("step sizes must be positive");
  }
  if (options.span_threshold < 1) {
    return Status::invalid_input("span threshold must be ≥ 1");
  }
  if (options.max_rounds < 0) {
    return Status::invalid_input("max_rounds must be ≥ 0");
  }
  return Status();
}

namespace {

void validate(const ConflInstance& instance) {
  if (util::Status s = validate_confl_instance(instance); !s.ok()) {
    util::check_failed("validate_confl_instance(instance).ok()", __FILE__,
                       __LINE__, s.message());
  }
}

using internal::DenseRows;
using internal::Slot;
using internal::SparseRows;
using internal::TightEntry;
using internal::TightList;

// Per-facility tight lists: the ascending (slot, γ) entries of the clients
// tight with each openable facility. Entries of clients that froze since
// are dropped lazily by the next walk that passes over them.
class TightStore {
 public:
  explicit TightStore(std::size_t n) : lists_(n) {}

  TightList& operator[](NodeId i) {
    return lists_[static_cast<std::size_t>(i)];
  }

  // Restores ascending slot order after an intake appended a sorted run
  // [mid, end) whose slots are disjoint from the prefix's. Almost always a
  // plain append; merges otherwise.
  void merge_tail(NodeId i, std::size_t mid) {
    TightList& tl = (*this)[i];
    if (mid == 0 || mid == tl.size() || tl[mid - 1].slot < tl[mid].slot) {
      return;
    }
    scratch_.resize(tl.size());
    const auto split = tl.begin() + static_cast<std::ptrdiff_t>(mid);
    std::merge(tl.begin(), split, split, tl.end(), scratch_.begin(),
               [](const TightEntry& a, const TightEntry& b) {
                 return a.slot < b.slot;
               });
    std::copy(scratch_.begin(), scratch_.end(), tl.begin());
  }

 private:
  std::vector<TightList> lists_;
  TightList scratch_;
};

// Drops the entries of frozen clients from `tl`, keeping their order.
template <typename Rows>
void drop_frozen(TightList& tl, Slot rb, const Rows& rows,
                 const std::vector<char>& frozen) {
  std::size_t out = 0;
  for (const TightEntry& e : tl) {
    if (!frozen[static_cast<std::size_t>(rows.col(e.slot, rb))]) {
      tl[out++] = e;
    }
  }
  tl.resize(out);
}

// Fixed-step tight-event scheduler. alpha(k) is α after k growth rounds,
// computed by the same repeated addition the oracle performs, so every
// comparison sees the exact same value. Bucket k holds the (i, slot) pairs
// that first satisfy alpha(k) + 1e-12 ≥ c_ij, in lex order, for k up to a
// doubling horizon. Nothing else is kept per pair: each extension reads
// the rows of the still-openable facilities once and buckets only the
// pairs that enter the new window (old reach, new reach] and can still
// matter, c_ij < bound[j] (see DualGrowth::bound_).
class FixedStepScheduler {
 public:
  explicit FixedStepScheduler(double alpha_step) : alpha_step_(alpha_step) {}

  int horizon() const { return horizon_; }
  double alpha(int k) const { return a_seq_[static_cast<std::size_t>(k)]; }

  // Extends the horizon to `target` rounds. `active` lists the unfrozen
  // clients in ascending order.
  template <typename Rows>
  void extend(int target, const std::vector<NodeId>& openable,
              const std::vector<NodeId>& active, const Rows& rows,
              const std::vector<double>& bound) {
    const int old = horizon_;
    horizon_ = target;
    while (a_seq_.size() <= static_cast<std::size_t>(horizon_)) {
      a_seq_.push_back(a_seq_.empty() ? 0.0 : a_seq_.back() + alpha_step_);
    }
    bucket_.resize(static_cast<std::size_t>(horizon_) + 1);
    const double reach = alpha(horizon_) + 1e-12;
    const double old_reach = old < 0 ? -kInfCost : alpha(old) + 1e-12;
    // In the window, and not dead: one rarely-taken branch per pair.
    auto consider = [&](NodeId i, Slot s, double cij, std::size_t j) {
      if (old_reach < cij && cij <= reach && cij < bound[j]) {
        bucket_[first_tight_round(cij, old + 1)].emplace_back(i, s);
      }
    };
    for (NodeId i : openable) {
      const Slot rb = rows.row_begin(i);
      if constexpr (Rows::kDense) {
        // A frozen client's pairs are all dead, so a dense row is read at
        // the unfrozen clients' columns only (ascending ids keep the row's
        // slot order).
        for (NodeId j : active) {
          consider(i, rb + j, rows.cost(rb + j), static_cast<std::size_t>(j));
        }
      } else {
        const Slot re = rows.row_end(i);
        for (Slot s = rb; s < re; ++s) {
          consider(i, s, rows.cost(s),
                   static_cast<std::size_t>(rows.col(s, rb)));
        }
      }
    }
  }

  // Admits the pairs first tight at round k into `tight` (skipping those
  // whose facility opened or whose client froze since they were bucketed),
  // calls on_admit(i) in ascending order for each facility whose list
  // grew, and releases the bucket.
  template <typename Rows, typename OnAdmit>
  void admit(int k, const std::vector<char>& open,
             const std::vector<char>& frozen, const Rows& rows,
             TightStore& tight, const OnAdmit& on_admit) {
    auto& b = bucket_[static_cast<std::size_t>(k)];
    std::size_t p = 0;
    while (p < b.size()) {  // entries are grouped by facility, lex order
      const NodeId i = b[p].first;
      std::size_t q = p;
      while (q < b.size() && b[q].first == i) ++q;
      if (!open[static_cast<std::size_t>(i)]) {
        const Slot rb = rows.row_begin(i);
        TightList& tl = tight[i];
        const std::size_t mid = tl.size();
        for (std::size_t t = p; t < q; ++t) {
          if (!frozen[static_cast<std::size_t>(
                  rows.col(b[t].second, rb))]) {
            tl.push_back({b[t].second, 0.0});
          }
        }
        if (tl.size() > mid) {
          tight.merge_tail(i, mid);
          on_admit(i);
        }
      }
      p = q;
    }
    std::vector<std::pair<NodeId, Slot>>().swap(b);
  }

 private:
  // First round in [lo, horizon] with alpha(round) + 1e-12 ≥ c; the
  // predicate is monotone because α is non-decreasing.
  std::size_t first_tight_round(double c, int lo) const {
    int hi = horizon_;
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      if (alpha(mid) + 1e-12 >= c) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return static_cast<std::size_t>(lo);
  }

  double alpha_step_;
  std::vector<double> a_seq_;
  std::vector<std::vector<std::pair<NodeId, Slot>>> bucket_;
  int horizon_ = -1;
};

// Event-driven tight-event scheduler. Per-facility (c, slot)-sorted pair
// arrays with two monotone cursors: tight_ptr walks pairs as they satisfy
// α + 1e-12 ≥ c (feeding the tight lists), delta_ptr walks pairs with
// c ≤ α or a frozen client, leaving it on the facility's next
// tightness-event candidate. Slot order within a row is client order, so
// equal-cost ties sort by client id.
//
// A lazy-deletion heap holds one entry per tracked facility, keyed by the
// cost of the pair its delta_ptr rests on. Pair costs are static and the
// cursors are monotone, so a facility's key only ever increases — a popped
// entry is validated by advancing the cursor and re-pushed under its new
// key if stale. The tightness delta is then (top key − α), bitwise equal
// to a full scan's min(c − α) because subtracting the shared α is monotone
// in c.
class EventScheduler {
 public:
  // Builds the sorted pair arrays of the `tracked` facilities (every
  // openable one plus the pre-opened root) and seeds the heap. The one
  // O(pairs log n) step; rows are independent, so it runs in parallel.
  template <typename Rows>
  util::Status build(const std::vector<NodeId>& tracked, std::size_t n,
                     const Rows& rows, int threads,
                     const util::RunBudget& budget) {
    lists_.resize(n);
    util::parallel_for(
        tracked.size(),
        [&](std::size_t t) {
          const NodeId i = tracked[t];
          auto& arr = lists_[static_cast<std::size_t>(i)].byc;
          const Slot rb = rows.row_begin(i);
          const Slot re = rows.row_end(i);
          arr.reserve(static_cast<std::size_t>(re - rb));
          for (Slot s = rb; s < re; ++s) {
            const double cij = rows.cost(s);
            if (cij != kInfCost) arr.emplace_back(cij, s);
          }
          std::sort(arr.begin(), arr.end());
        },
        threads, budget);
    if (budget.expired()) return budget.status("event-list build");
    // The first query's pop-validation advances past already-tight pairs.
    for (NodeId i : tracked) {
      const auto& arr = lists_[static_cast<std::size_t>(i)].byc;
      if (!arr.empty()) heap_.emplace(arr.front().first, i);
    }
    return util::Status();
  }

  // Admits every pair with α + 1e-12 ≥ c of an openable facility into
  // `tight` (frozen clients skipped) and calls on_admit(i) in ascending
  // order for each facility whose list grew.
  template <typename Rows, typename OnAdmit>
  void admit(double alpha, const std::vector<NodeId>& openable,
             const std::vector<char>& frozen, const Rows& rows,
             TightStore& tight, const OnAdmit& on_admit) {
    for (NodeId i : openable) {
      auto& ev = lists_[static_cast<std::size_t>(i)];
      std::size_t& p = ev.tight_ptr;
      const auto& arr = ev.byc;
      if (p >= arr.size() || alpha + 1e-12 < arr[p].first) continue;
      const Slot rb = rows.row_begin(i);
      newly_.clear();
      while (p < arr.size() && alpha + 1e-12 >= arr[p].first) {
        if (!frozen[static_cast<std::size_t>(
                rows.col(arr[p].second, rb))]) {
          newly_.push_back(arr[p].second);
        }
        ++p;
      }
      if (newly_.empty()) continue;
      std::sort(newly_.begin(), newly_.end());
      TightList& tl = tight[i];
      const std::size_t mid = tl.size();
      for (Slot s : newly_) tl.push_back({s, 0.0});
      tight.merge_tail(i, mid);
      on_admit(i);
    }
  }

  // Time from α to the next tightness event (some unfrozen client
  // reaching c_ij with a tracked facility), or kInfCost when none is left.
  template <typename Rows>
  double next_tightness(double alpha, const std::vector<char>& frozen,
                        const Rows& rows) {
    while (!heap_.empty()) {
      const auto [key, i] = heap_.top();
      auto& ev = lists_[static_cast<std::size_t>(i)];
      std::size_t& p = ev.delta_ptr;
      const auto& arr = ev.byc;
      const Slot rb = rows.row_begin(i);
      while (p < arr.size() &&
             (arr[p].first <= alpha ||
              frozen[static_cast<std::size_t>(
                  rows.col(arr[p].second, rb))])) {
        ++p;
      }
      if (p >= arr.size()) {  // facility has no tightness events left
        heap_.pop();
        continue;
      }
      if (arr[p].first != key) {  // stale: re-push under the increased key
        heap_.pop();
        heap_.emplace(arr[p].first, i);
        continue;
      }
      return arr[p].first - alpha;
    }
    return kInfCost;
  }

 private:
  struct EventList {
    std::vector<std::pair<double, Slot>> byc;
    std::size_t tight_ptr = 0;
    std::size_t delta_ptr = 0;
  };
  std::vector<EventList> lists_;
  std::priority_queue<std::pair<double, NodeId>,
                      std::vector<std::pair<double, NodeId>>, std::greater<>>
      heap_;
  std::vector<Slot> newly_;
};

// The active-set dual growth, templated over the cost-row view. Semantics
// (and bit-for-bit arithmetic) match the dense oracle in
// tests/confl_oracle.h; the data structures differ:
//
//   * Every unfrozen client has the same α (all grow by the same delta from
//     0), so one scalar replaces the per-client vector, and "client j is
//     tight with facility i" is the monotone predicate α + 1e-12 ≥ c_ij.
//   * `active_` / `openable_` are compacted id lists, so finished clients
//     and opened facilities cost nothing in later rounds; `bidding_` lists
//     the openable facilities with tight clients, the only ones a round's
//     payments, bids, openings and event candidates can touch.
//   * Tight pairs arrive as events from a scheduler (FixedStepScheduler or
//     EventScheduler) into the TightStore, which holds each pair's γ; β is
//     kept only in aggregate (`paid_` holds Σ_j β_ij), since no step reads
//     an individual β_ij. No per-round state is sized by the number of
//     materialized pairs.
//   * Freezing onto open facilities uses an incrementally maintained
//     cheapest-open-facility cost per client (`bound_`), updated on each
//     opening. Which facility attains it is never needed: Phase 2
//     re-assigns every client from scratch.
//
// Payments walk tight entries in ascending (facility, client) order, which
// keeps every floating-point accumulation in the oracle's order. Under
// SparseRows every loop that walks a dense row walks the row's candidate
// list instead, so a round costs O(materialized live pairs).
//
// One round is four named phases: grow (α advance + tight-event intake),
// freeze_on_open, pay_and_bid, open_admins.
template <typename Rows>
class DualGrowth {
 public:
  DualGrowth(const ConflInstance& instance, const ConflOptions& options,
             const util::RunBudget& budget, const Rows& rows)
      : instance_(instance),
        options_(options),
        budget_(budget),
        rows_(rows),
        n_(instance.network->num_nodes()),
        root_(instance.root),
        frozen_(static_cast<std::size_t>(n_), 0),
        open_(static_cast<std::size_t>(n_), 0),
        paid_(static_cast<std::size_t>(n_), 0.0),
        bound_(static_cast<std::size_t>(n_), kInfCost),
        tight_(static_cast<std::size_t>(n_)),
        max_rounds_(internal::derive_max_rounds(instance, options, rows)),
        beta_rate_(options.beta_step / options.alpha_step),
        gamma_rate_(options.gamma_step / options.alpha_step),
        event_(options.growth == GrowthMode::kEventDriven),
        fixed_(options.alpha_step) {
    // The root is not a client (it holds everything already) and is the
    // pre-opened facility.
    frozen_[static_cast<std::size_t>(root_)] = 1;
    open_[static_cast<std::size_t>(root_)] = 1;
    active_.reserve(static_cast<std::size_t>(n_));
    for (NodeId j = 0; j < n_; ++j) {
      if (!frozen_[static_cast<std::size_t>(j)]) active_.push_back(j);
    }
    num_active_ = active_.size();
    for (NodeId i = 0; i < n_; ++i) {
      if (!open_[static_cast<std::size_t>(i)] &&
          instance.facility_cost[static_cast<std::size_t>(i)] != kInfCost) {
        openable_.push_back(i);
      }
    }
    in_bidding_.assign(static_cast<std::size_t>(n_), 0);
    // Seed the cheapest-open costs with the root's row (clients outside a
    // sparse root row sit at +inf — they can only freeze once some facility
    // with them in radius opens).
    const Slot rb = rows.row_begin(root_);
    const Slot re = rows.row_end(root_);
    for (Slot s = rb; s < re; ++s) {
      bound_[static_cast<std::size_t>(rows.col(s, rb))] = rows.cost(s);
    }
    bound_[static_cast<std::size_t>(root_)] = -kInfCost;
  }

  util::Result<ConflSolution> run() {
    // A derived fixed-step cap clamped at INT_MAX means α cannot reach the
    // root cost within int rounds; unbudgeted, such a run would grow (and
    // size its scheduler) for ~2^31 rounds.
    if (!event_ && options_.max_rounds == 0 && max_rounds_ == INT_MAX &&
        budget_.is_unlimited()) {
      return util::Status::invalid_input(
          "alpha_step too small: fixed-step growth needs ≥ INT_MAX rounds; "
          "set max_rounds or pass a RunBudget");
    }
    if (event_) {
      if (util::Status s = set_up_events(); !s.ok()) return s;
    } else {
      fixed_.extend(std::max(0, std::min(16, max_rounds_)), openable_,
                    active_, rows_, bound_);
      admit_fixed(0);  // pairs tight at α = 0 (zero-cost pairs)
    }

    int round = 0;
    for (; round < max_rounds_ && num_active_ > 0; ++round) {
      // Cooperative cancellation point: one check and one work unit per
      // growth round, before any dual is touched, so an aborted run leaves
      // no half-applied round behind.
      budget_.charge();
      if (budget_.expired()) return budget_.status("confl dual growth");

      const double delta = grow(round);
      if (options_.growth_trace != nullptr) {
        options_.growth_trace->push_back(delta);
      }
      bool froze = freeze_on_open();
      if (delta > 0) pay_and_bid(delta);
      const bool opened = open_admins(delta);
      froze = froze || opened;

      // Compact the client and facility lists so later rounds only touch
      // live entries.
      if (froze) {
        ++stamp_;  // frozen members invalidate every cached payment rate
        std::size_t out = 0;
        for (NodeId j : active_) {
          if (!frozen_[static_cast<std::size_t>(j)]) active_[out++] = j;
        }
        active_.resize(out);
      }
      if (opened) {
        std::size_t out = 0;
        for (NodeId i : openable_) {
          if (!open_[static_cast<std::size_t>(i)]) openable_[out++] = i;
        }
        openable_.resize(out);
        out = 0;
        for (NodeId i : bidding_) {
          if (open_[static_cast<std::size_t>(i)]) {
            in_bidding_[static_cast<std::size_t>(i)] = 0;
          } else {
            bidding_[out++] = i;
          }
        }
        bidding_.resize(out);
      }
    }
    if (num_active_ > 0) {
      return util::Status::resource_exhausted(
          "dual growth did not converge within the round budget");
    }

    ConflSolution solution;
    solution.rounds = round;
    if (util::Status s = internal::finish_solution(instance_, budget_,
                                                   admins_, rows_, solution);
        !s.ok()) {
      return s;
    }
    return solution;
  }

 private:
  double weight(NodeId j) const {
    return instance_.client_weight.empty()
               ? 1.0
               : instance_.client_weight[static_cast<std::size_t>(j)];
  }
  double facility_cost(NodeId i) const {
    return instance_.facility_cost[static_cast<std::size_t>(i)];
  }

  util::Status set_up_events() {
    // Facilities that take part in tightness events: every openable one
    // plus everything pre-opened (the root) — a constant set, since only
    // openable facilities ever open.
    std::vector<NodeId> tracked;
    tracked.reserve(openable_.size() + 1);
    for (NodeId i = 0; i < n_; ++i) {
      if (open_[static_cast<std::size_t>(i)] || facility_cost(i) != kInfCost) {
        tracked.push_back(i);
      }
    }
    if (util::Status s =
            events_.build(tracked, static_cast<std::size_t>(n_), rows_,
                          options_.threads, budget_);
        !s.ok()) {
      return s;
    }
    cached_rate_.assign(static_cast<std::size_t>(n_), 0.0);
    rate_stamp_.assign(static_cast<std::size_t>(n_), 0);
    admit_events();  // pairs tight at α = 0 (zero-cost pairs)
    return util::Status();
  }

  void admit_events() {
    events_.admit(alpha_, openable_, frozen_, rows_, tight_,
                  [this](NodeId i) { note_admitted(i); });
    merge_joined();
  }

  void admit_fixed(int k) {
    fixed_.admit(k, open_, frozen_, rows_, tight_,
                 [this](NodeId i) { note_admitted(i); });
    merge_joined();
  }

  // Facility i's tight list grew: it joins `bidding_` if absent, and in
  // event mode its cached payment rate is stale.
  void note_admitted(NodeId i) {
    if (event_) rate_stamp_[static_cast<std::size_t>(i)] = 0;
    if (!in_bidding_[static_cast<std::size_t>(i)]) {
      in_bidding_[static_cast<std::size_t>(i)] = 1;
      joined_.push_back(i);
    }
  }

  // Merges the facilities that joined during one admit (ascending, as both
  // schedulers admit in facility order) into `bidding_`.
  void merge_joined() {
    if (joined_.empty()) return;
    const auto mid = static_cast<std::ptrdiff_t>(bidding_.size());
    bidding_.insert(bidding_.end(), joined_.begin(), joined_.end());
    std::inplace_merge(bidding_.begin(), bidding_.begin() + mid,
                       bidding_.end());
    joined_.clear();
  }

  // Phase 1 (paper line 18): grow connection bids by the fixed unit, or
  // exactly up to the next event, and admit the pairs that become tight at
  // the new α. Returns the time advance δ.
  double grow(int round) {
    if (event_) {
      const double delta = next_event_delta();
      if (delta > 0) {
        alpha_ += delta;
        admit_events();
      }
      return delta;
    }
    const int k = round + 1;
    if (k > fixed_.horizon()) {
      // Doubled in 64 bits: the horizon may approach INT_MAX.
      const long long target = std::min<long long>(
          std::max<long long>(2LL * fixed_.horizon(), k), max_rounds_);
      fixed_.extend(static_cast<int>(target), openable_, active_, rows_,
                    bound_);
    }
    alpha_ = fixed_.alpha(k);
    admit_fixed(k);
    return options_.alpha_step;
  }

  // Phase 2 (lines 21–26): a client tight with an already-open facility
  // has its TIGHT request accepted and freezes onto its cheapest open
  // facility. Returns whether any client froze.
  bool freeze_on_open() {
    bool froze = false;
    for (NodeId j : active_) {
      if (alpha_ + 1e-12 >= bound_[static_cast<std::size_t>(j)]) {
        freeze(j);
        froze = true;
      }
    }
    return froze;
  }

  void freeze(NodeId j) {
    frozen_[static_cast<std::size_t>(j)] = 1;
    bound_[static_cast<std::size_t>(j)] = -kInfCost;
    --num_active_;
  }

  // Phase 3 (lines 19–20): tight clients pay β toward each unopened
  // facility until f_i is covered, then raise γ, in ascending (facility,
  // client) order — the oracle's accumulation order. Facilities left with
  // no tight client leave `bidding_`. Collects into `span_candidates_` the
  // facilities that may open this round: f_i covered and an upper bound on
  // the SPAN count ≥ M — exact for clients that raised γ; a client that
  // paid β this round has γ = 0 and counts as a possible SPAN.
  void pay_and_bid(double delta) {
    span_candidates_.clear();
    std::size_t kept = 0;
    for (NodeId i : bidding_) {
      TightList& tl = tight_[i];
      const Slot rb = rows_.row_begin(i);
      const double fi = facility_cost(i);
      double& pi = paid_[static_cast<std::size_t>(i)];
      int spans = 0;
      std::size_t out = 0;
      for (TightEntry e : tl) {
        const NodeId j = rows_.col(e.slot, rb);
        if (frozen_[static_cast<std::size_t>(j)]) continue;
        if (pi + 1e-12 < fi) {
          const double pay = std::min(weight(j) * beta_rate_ * delta, fi - pi);
          pi += pay;
          ++spans;
        } else {
          // Demand-weighted clients raise relay bids faster, pulling
          // facilities toward demand hot-spots.
          e.gamma += weight(j) * gamma_rate_ * delta;
          if (e.gamma + 1e-12 >= rows_.cost(e.slot)) ++spans;
        }
        tl[out++] = e;
      }
      tl.resize(out);
      if (tl.empty()) {
        in_bidding_[static_cast<std::size_t>(i)] = 0;
        continue;
      }
      bidding_[kept++] = i;
      if (pi + 1e-12 >= fi && spans >= options_.span_threshold) {
        span_candidates_.push_back(i);
      }
    }
    bidding_.resize(kept);
  }

  // Phase 4 (lines 27–44): facilities with the facility cost covered and
  // ≥ M SPAN requests become ADMIN, in ascending order. SPANs from frozen
  // clients are retracted (a FREEZE response stops their bidding), which
  // prevents two adjacent facilities from opening for the same client set.
  // Every SPAN holder is tight (γ only grows for tight clients; a zero-cost
  // pair is tight from round 0), so counting within the tight list matches
  // the oracle's all-clients scan. After a growth step only pay_and_bid's
  // candidates are walked: the others' SPAN bound is below M, and freezes
  // since then only retract SPANs. Returns whether any facility opened.
  bool open_admins(double delta) {
    bool opened = false;
    for (NodeId i : delta > 0 ? span_candidates_ : bidding_) {
      if (paid_[static_cast<std::size_t>(i)] + 1e-12 < facility_cost(i)) {
        continue;
      }
      TightList& tl = tight_[i];
      const Slot rb = rows_.row_begin(i);
      int spans = 0;
      std::size_t out = 0;
      for (const TightEntry& e : tl) {
        if (frozen_[static_cast<std::size_t>(rows_.col(e.slot, rb))]) {
          continue;
        }
        tl[out++] = e;
        if (e.gamma + 1e-12 >= rows_.cost(e.slot)) ++spans;
      }
      tl.resize(out);
      if (spans < options_.span_threshold) continue;

      open_[static_cast<std::size_t>(i)] = 1;
      opened = true;
      admins_.push_back(i);
      fold_open_facility(i, rb);
      // Freeze everyone tight with the new ADMIN. (A client with β_ij > 0
      // is necessarily tight, so the oracle's "tight or contributed" freeze
      // set is exactly the tight list.)
      for (const TightEntry& e : tl) {
        const NodeId j = rows_.col(e.slot, rb);
        if (!frozen_[static_cast<std::size_t>(j)]) freeze(j);
      }
      TightList().swap(tl);
    }
    return opened;
  }

  // Folds the newly opened facility i into every unfrozen client's
  // cheapest-open cost (a frozen client's −∞ bound never drops). Dense
  // walks the active-client list against the facility's row; the sparse
  // fold walks the row's candidate list instead — out-of-row pairs cost
  // +inf and can never lower a bound.
  void fold_open_facility(NodeId i, Slot rb) {
    if constexpr (Rows::kDense) {
      const double* row = rows_.c + rb;
      for (NodeId j : active_) {
        double& b = bound_[static_cast<std::size_t>(j)];
        b = std::min(b, row[j]);
      }
    } else {
      const Slot re = rows_.row_end(i);
      for (Slot s = rb; s < re; ++s) {
        double& b = bound_[static_cast<std::size_t>(rows_.col(s, rb))];
        b = std::min(b, rows_.cost(s));
      }
    }
  }

  // Smallest time advance to the next event (event-driven mode): a pair
  // turning tight, a facility's payments completing, or its M-th SPAN.
  // Returns 0 when an event is already due (process without growing).
  // Candidates and FP expressions are the oracle's (via
  // facility_event_delta); min() over them is order-insensitive, so the
  // heap-ordered tightness candidate gives the same value as a full scan.
  //
  // The per-facility β payment rate (Σ weights over its tight list) is
  // cached with stamp invalidation: any freeze anywhere bumps `stamp_`
  // (frozen members must be dropped before summing), and an admit zeroes
  // the facility's stamp. A hit skips the facility's O(|tight|)
  // compact-and-sum; the cached value is bitwise equal to a fresh re-sum
  // because a valid stamp means the list is unchanged since it was taken.
  double next_event_delta() {
    double delta = events_.next_tightness(alpha_, frozen_, rows_);
    const auto weight_fn = [this](NodeId j) { return weight(j); };
    for (NodeId i : bidding_) {
      TightList& tl = tight_[i];
      const Slot rb = rows_.row_begin(i);
      const double fi = facility_cost(i);
      const double pi = paid_[static_cast<std::size_t>(i)];
      double rate = 0.0;
      if (pi + 1e-12 < fi) {
        if (rate_stamp_[static_cast<std::size_t>(i)] != stamp_) {
          drop_frozen(tl, rb, rows_, frozen_);
          cached_rate_[static_cast<std::size_t>(i)] =
              internal::tight_rate(tl, rb, rows_, weight_fn);
          rate_stamp_[static_cast<std::size_t>(i)] = stamp_;
        }
        rate = cached_rate_[static_cast<std::size_t>(i)];
      } else {
        // SPAN phase: γ moves every round, so this walk cannot be cached.
        drop_frozen(tl, rb, rows_, frozen_);
      }
      delta = std::min(
          delta, internal::facility_event_delta(
                     fi, pi, rate, tl, rb, rows_, weight_fn, beta_rate_,
                     gamma_rate_, options_.span_threshold, pending_));
    }
    if (delta == kInfCost) delta = 0.0;  // nothing to wait for
    return std::max(delta, 0.0);
  }

  const ConflInstance& instance_;
  const ConflOptions& options_;
  const util::RunBudget& budget_;
  const Rows rows_;
  const int n_;
  const NodeId root_;

  // Client and facility state.
  std::vector<char> frozen_;
  std::vector<char> open_;
  std::vector<double> paid_;             // Σ_j β_ij per facility
  std::vector<NodeId> active_;           // unfrozen clients, ascending
  std::size_t num_active_ = 0;
  std::vector<NodeId> openable_;         // unopened facilities, ascending
  // Openable facilities that may have tight clients, ascending (a list
  // emptied by a freeze is dropped at the next payment walk).
  std::vector<NodeId> bidding_;
  std::vector<char> in_bidding_;
  std::vector<NodeId> joined_;           // admit scratch
  std::vector<NodeId> span_candidates_;  // pay_and_bid → open_admins
  // Per client: the cost of its cheapest open facility while unfrozen,
  // −∞ once frozen. A pair with c_ij ≥ bound_[j] can never pay, bid or
  // SPAN (the dead-pair lemma, DESIGN.md §2): bound_ only decreases, and
  // freeze_on_open freezes j in the round the pair would turn tight.
  std::vector<double> bound_;
  std::vector<NodeId> admins_;
  TightStore tight_;
  double alpha_ = 0.0;  // the shared α of every unfrozen client

  const int max_rounds_;
  const double beta_rate_;
  const double gamma_rate_;
  const bool event_;

  FixedStepScheduler fixed_;
  EventScheduler events_;
  std::vector<double> cached_rate_;
  std::vector<std::uint64_t> rate_stamp_;
  std::uint64_t stamp_ = 1;
  std::vector<double> pending_;
};

}  // namespace

ConflSolution solve_confl(const ConflInstance& instance,
                          const ConflOptions& options) {
  util::Result<ConflSolution> result = try_solve_confl(instance, options);
  if (!result.ok()) {
    util::check_failed("try_solve_confl(...).ok()", __FILE__, __LINE__,
                       result.status().message());
  }
  return std::move(result).value();
}

util::Result<ConflSolution> try_solve_confl(const ConflInstance& instance,
                                            const ConflOptions& options,
                                            const util::RunBudget& budget) {
  if (util::Status s = validate_confl_instance(instance); !s.ok()) return s;
  if (util::Status s = validate_confl_options(options); !s.ok()) return s;
  if (instance.sparse()) {
    return DualGrowth<SparseRows>(instance, options, budget,
                                  SparseRows{&instance.sparse_cost})
        .run();
  }
  return DualGrowth<DenseRows>(
             instance, options, budget,
             DenseRows{instance.assign_cost.data(),
                       static_cast<Slot>(instance.network->num_nodes())})
      .run();
}

namespace {

template <typename Rows>
double evaluate_confl_objective_impl(const ConflInstance& instance,
                                     const std::vector<NodeId>& open,
                                     double scaled_tree_cost,
                                     const Rows& rows) {
  const int n = instance.network->num_nodes();
  const auto un = static_cast<std::size_t>(n);
  double total = scaled_tree_cost;
  for (NodeId i : open) {
    total += instance.facility_cost[static_cast<std::size_t>(i)];
  }
  // Min-fold per facility row (min over doubles is order-insensitive, so
  // this matches the per-client scan of the historical dense evaluator).
  std::vector<double> best(un, kInfCost);
  {
    const Slot rb = rows.row_begin(instance.root);
    const Slot re = rows.row_end(instance.root);
    for (Slot s = rb; s < re; ++s) {
      best[static_cast<std::size_t>(rows.col(s, rb))] = rows.cost(s);
    }
  }
  for (NodeId i : open) {
    const Slot rb = rows.row_begin(i);
    const Slot re = rows.row_end(i);
    for (Slot s = rb; s < re; ++s) {
      const auto j = static_cast<std::size_t>(rows.col(s, rb));
      best[j] = std::min(best[j], rows.cost(s));
    }
  }
  for (NodeId j = 0; j < n; ++j) {
    const double w = instance.client_weight.empty()
                         ? 1.0
                         : instance.client_weight[static_cast<std::size_t>(j)];
    total += w * best[static_cast<std::size_t>(j)];
  }
  return total;
}

}  // namespace

double evaluate_confl_objective(const ConflInstance& instance,
                                const std::vector<NodeId>& open,
                                double scaled_tree_cost) {
  validate(instance);
  if (instance.sparse()) {
    return evaluate_confl_objective_impl(instance, open, scaled_tree_cost,
                                         SparseRows{&instance.sparse_cost});
  }
  return evaluate_confl_objective_impl(
      instance, open, scaled_tree_cost,
      DenseRows{instance.assign_cost.data(),
                static_cast<Slot>(instance.network->num_nodes())});
}

}  // namespace faircache::confl
