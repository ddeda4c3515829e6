#pragma once

// Internal to the ConFL engine (confl.cpp) and its dense test oracle
// (tests/confl_oracle.h); not part of the library API. Both growth loops
// include this header, so every expression whose value they must agree on
// bit for bit — the per-facility event arithmetic, the round cap and
// Phase 2 — is defined exactly once.

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "confl/confl.h"
#include "graph/shortest_paths.h"

namespace faircache::confl::internal {

using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;

// A (facility, client) pair's position in its cost store: i*n + j for the
// dense matrix, the CSR entry index for the sparse store.
using Slot = std::int64_t;

// The two cost-row views the growth engine is templated over. Contract:
// row slots [row_begin(i), row_end(i)) ascend with client id, so slot
// iteration preserves the oracle's ascending-client floating-point
// accumulation order.
struct DenseRows {
  const double* c;  // n×n row-major
  Slot n;
  static constexpr bool kDense = true;
  Slot row_begin(NodeId i) const { return static_cast<Slot>(i) * n; }
  Slot row_end(NodeId i) const { return (static_cast<Slot>(i) + 1) * n; }
  double cost(Slot s) const { return c[s]; }
  NodeId col(Slot s, Slot rb) const { return static_cast<NodeId>(s - rb); }
};

struct SparseRows {
  const metrics::SparseContention* s;  // pairs absent from rows are +inf
  static constexpr bool kDense = false;
  Slot row_begin(NodeId i) const { return s->row_begin(i); }
  Slot row_end(NodeId i) const { return s->row_end(i); }
  double cost(Slot t) const { return s->cost[static_cast<std::size_t>(t)]; }
  NodeId col(Slot t, Slot /*rb*/) const {
    return metrics::SparseContention::col_of(
        s->packed[static_cast<std::size_t>(t)]);
  }
};

// One tight (facility, client) pair: its slot and the client's relay bid
// γ toward the facility. γ starts at 0 when the pair turns tight and is
// read only while the pair is tight, so it lives beside the slot instead
// of in a pairs-sized array.
struct TightEntry {
  Slot slot;
  double gamma;
};
using TightList = std::vector<TightEntry>;

// Ascending-order weight sum over a facility's tight unfrozen clients —
// the β payment rate. Both growth loops accumulate in this exact order, so
// the payment-completion deltas below agree bitwise.
template <typename Rows, typename WeightFn>
double tight_rate(const TightList& tight, Slot rb, const Rows& rows,
                  const WeightFn& weight) {
  double rate = 0.0;
  for (const TightEntry& e : tight) rate += weight(rows.col(e.slot, rb));
  return rate;
}

// One facility's next-event candidate in event-driven growth: while f_i is
// uncovered, the time until payments complete; afterwards, the time until
// the M-th SPAN request. `tight` must hold the facility's tight unfrozen
// clients in ascending client order with their γ, `rate` must equal
// tight_rate(tight, ...) (callers may reuse a cached value only when it is
// bitwise equal to that re-sum), and `pending` is caller scratch. Returns
// kInfCost when the facility contributes no event and 0.0 when an opening
// is already due.
template <typename Rows, typename WeightFn>
double facility_event_delta(double fi, double paid_i, double rate,
                            const TightList& tight, Slot rb, const Rows& rows,
                            const WeightFn& weight, double beta_rate,
                            double gamma_rate, int span_threshold,
                            std::vector<double>& pending) {
  if (tight.empty()) return kInfCost;
  if (paid_i + 1e-12 < fi) {
    // Payment completion (rate = summed weights of tight clients).
    if (rate > 0) return (fi - paid_i) / (rate * beta_rate);
    return kInfCost;
  }
  // M-th SPAN.
  int spans = 0;
  pending.clear();
  for (const TightEntry& e : tight) {
    const double cij = rows.cost(e.slot);
    if (e.gamma + 1e-12 >= cij) {
      ++spans;
    } else if (const double w = weight(rows.col(e.slot, rb)); w > 0) {
      pending.push_back((cij - e.gamma) / (w * gamma_rate));
    }
  }
  const int needed = span_threshold - spans;
  if (needed <= 0) return 0.0;  // opening already due
  if (needed <= static_cast<int>(pending.size())) {
    std::nth_element(pending.begin(), pending.begin() + (needed - 1),
                     pending.end());
    return pending[static_cast<std::size_t>(needed - 1)];
  }
  return kInfCost;
}

// The growth round cap: options.max_rounds, or one derived from the
// instance — clamped to INT_MAX, so a tiny alpha_step cannot overflow it.
template <typename Rows>
int derive_max_rounds(const ConflInstance& instance,
                      const ConflOptions& options, const Rows& rows) {
  if (options.max_rounds != 0) return options.max_rounds;
  const int n = instance.network->num_nodes();
  if (options.growth == GrowthMode::kEventDriven) {
    // Computed wide: the quadratic bound overflows int from n ≈ 33k.
    const long long bound = 2LL * n * n + 4LL * n + 16;
    return bound > INT_MAX ? INT_MAX : static_cast<int>(bound);
  }
  // Fixed step: α only needs to reach the cost of connecting straight to
  // the root, after which every client freezes.
  double worst = 0.0;
  const Slot rb = rows.row_begin(instance.root);
  const Slot re = rows.row_end(instance.root);
  for (Slot s = rb; s < re; ++s) {
    const double to_root = rows.cost(s);
    if (to_root != kInfCost) worst = std::max(worst, to_root);
  }
  const double rounds = std::ceil(worst / options.alpha_step) + 2.0;
  return rounds < static_cast<double>(INT_MAX) ? static_cast<int>(rounds)
                                               : INT_MAX;
}

// Runs Phase 2 (Steiner tree over the ADMIN set, cheapest-facility
// re-assignment) and fills the cost fields of `solution`. `admins` is
// consumed (sorted in place). Non-OK when the budget expires mid-phase or
// the ADMIN set cannot be connected to the root.
template <typename Rows>
util::Status finish_solution(const ConflInstance& instance,
                             const util::RunBudget& budget,
                             std::vector<NodeId>& admins, const Rows& rows,
                             ConflSolution& solution) {
  const int n = instance.network->num_nodes();
  const auto un = static_cast<std::size_t>(n);
  const NodeId root = instance.root;
  auto weight = [&](NodeId j) {
    return instance.client_weight.empty()
               ? 1.0
               : instance.client_weight[static_cast<std::size_t>(j)];
  };

  std::sort(admins.begin(), admins.end());
  solution.open_facilities = admins;

  for (NodeId i : admins) {
    solution.facility_cost +=
        instance.facility_cost[static_cast<std::size_t>(i)];
  }

  if (!admins.empty()) {
    std::vector<NodeId> terminals = admins;
    terminals.push_back(root);
    std::vector<double> scaled = instance.edge_cost;
    for (double& w : scaled) w *= instance.edge_scale;
    util::Result<steiner::SteinerTree> tree = steiner::try_steiner_mst_approx(
        *instance.network, scaled, std::move(terminals), budget);
    if (!tree.ok()) return tree.status();
    solution.tree = std::move(tree).value();
    solution.tree_cost = solution.tree.cost;
  }
  if (budget.expired()) return budget.status("final client assignment");

  // Final assignment: cheapest facility in A ∪ {root} (never worse than the
  // dual-growth assignment). The min is folded facility-by-facility so the
  // scan walks whole cost rows (cache-linear) instead of columns; each
  // client sees the facilities in the same ascending order either way, so
  // every (best, best_i) update — and the weighted cost sum below — is the
  // per-client loop's, comparison for comparison. The sparse fold visits
  // only a row's materialized clients: absent pairs cost +inf, and an
  // all-+inf tie keeps the root — a client out of every open facility's
  // radius stays root-assigned.
  std::vector<double> best;
  std::vector<NodeId> best_i(un, root);
  if constexpr (Rows::kDense) {
    const double* root_row = rows.c + rows.row_begin(root);
    best.assign(root_row, root_row + n);
  } else {
    best.assign(un, kInfCost);
    const Slot rb = rows.row_begin(root);
    const Slot re = rows.row_end(root);
    for (Slot s = rb; s < re; ++s) {
      best[static_cast<std::size_t>(rows.col(s, rb))] = rows.cost(s);
    }
  }
  for (NodeId i : admins) {
    const Slot rb = rows.row_begin(i);
    const Slot re = rows.row_end(i);
    for (Slot s = rb; s < re; ++s) {
      const auto j = static_cast<std::size_t>(rows.col(s, rb));
      const double cij = rows.cost(s);
      if (cij < best[j] || (cij == best[j] && i < best_i[j])) {
        best[j] = cij;
        best_i[j] = i;
      }
    }
  }
  solution.assignment.assign(un, kInvalidNode);
  for (NodeId j = 0; j < n; ++j) {
    solution.assignment[static_cast<std::size_t>(j)] =
        best_i[static_cast<std::size_t>(j)];
    solution.assignment_cost += weight(j) * best[static_cast<std::size_t>(j)];
  }
  return util::Status();
}

}  // namespace faircache::confl::internal
