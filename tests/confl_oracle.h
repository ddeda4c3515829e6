#pragma once

// Test oracle for the ConFL dual growth (confl/confl.h): the original dense
// engine, with a per-client α vector and per-round rescans of every
// (facility, client) pair. It keeps β and γ in n×n matrices and derives
// every tight set from scratch each round, so it shares none of the
// engine's schedulers, tight lists or pruning. It does share the event
// arithmetic, the round cap and Phase 2 (confl/confl_internal.h): those
// must agree bit for bit, so they exist once. Dense-only by design:
// differential tests build the dense twin of a sparse instance.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "confl/confl.h"
#include "confl/confl_internal.h"
#include "util/check.h"
#include "util/matrix.h"

namespace faircache::test_oracle {

// Bit-identical to confl::solve_confl on every instance it accepts (a
// CheckError on malformed input or non-convergence).
inline confl::ConflSolution solve_confl_reference(
    const confl::ConflInstance& instance,
    const confl::ConflOptions& options = {}) {
  using confl::GrowthMode;
  using confl::internal::DenseRows;
  using confl::internal::Slot;
  using confl::internal::TightEntry;
  using graph::kInfCost;
  using graph::kInvalidNode;
  using graph::NodeId;

  FAIRCACHE_CHECK(confl::validate_confl_instance(instance).ok(),
                  "solve_confl_reference: invalid instance");
  FAIRCACHE_CHECK(confl::validate_confl_options(options).ok(),
                  "solve_confl_reference: invalid options");
  FAIRCACHE_CHECK(!instance.sparse(),
                  "solve_confl_reference requires dense assignment costs");

  const int n = instance.network->num_nodes();
  const NodeId root = instance.root;
  const auto& c = instance.assign_cost;
  const DenseRows rows{c.data(), static_cast<Slot>(n)};
  auto cost = [&](NodeId i, NodeId j) {
    return c(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
  };
  auto weight = [&](NodeId j) {
    return instance.client_weight.empty()
               ? 1.0
               : instance.client_weight[static_cast<std::size_t>(j)];
  };

  // Client state. The root is not a client (it holds everything already).
  std::vector<char> frozen(static_cast<std::size_t>(n), 0);
  frozen[static_cast<std::size_t>(root)] = 1;

  // Facility state.
  std::vector<char> open(static_cast<std::size_t>(n), 0);
  open[static_cast<std::size_t>(root)] = 1;  // producer pre-opened
  std::vector<double> paid(static_cast<std::size_t>(n), 0.0);

  // Dual variables. α per client; β/γ per (facility, client).
  std::vector<double> alpha(static_cast<std::size_t>(n), 0.0);
  util::Matrix<double> beta(static_cast<std::size_t>(n),
                            static_cast<std::size_t>(n), 0.0);
  util::Matrix<double> gamma(static_cast<std::size_t>(n),
                             static_cast<std::size_t>(n), 0.0);

  auto openable = [&](NodeId i) {
    return !open[static_cast<std::size_t>(i)] &&
           instance.facility_cost[static_cast<std::size_t>(i)] != kInfCost;
  };

  const int max_rounds = confl::internal::derive_max_rounds(instance, options,
                                                            rows);

  // Dual growth rates per unit of α-time.
  const double beta_rate = options.beta_step / options.alpha_step;
  const double gamma_rate = options.gamma_step / options.alpha_step;

  // Smallest time advance to the next event (event-driven mode). Returns 0
  // when an event is already due (process without growing). The
  // per-facility payment/SPAN arithmetic is the engine's
  // facility_event_delta — the deltas must agree bit for bit.
  confl::internal::TightList tight;
  std::vector<double> pending;
  auto next_event_delta = [&]() {
    double delta = kInfCost;
    for (NodeId j = 0; j < n; ++j) {
      if (frozen[static_cast<std::size_t>(j)]) continue;
      const double aj = alpha[static_cast<std::size_t>(j)];
      for (NodeId i = 0; i < n; ++i) {
        if (!open[static_cast<std::size_t>(i)] && !openable(i)) continue;
        const double cij = cost(i, j);
        if (cij == kInfCost) continue;
        if (cij > aj) delta = std::min(delta, cij - aj);  // tightness
      }
    }
    for (NodeId i = 0; i < n; ++i) {
      if (!openable(i)) continue;
      const double fi = instance.facility_cost[static_cast<std::size_t>(i)];
      const Slot rb = rows.row_begin(i);
      // Tight unfrozen clients of i, with their relay bids.
      tight.clear();
      for (NodeId j = 0; j < n; ++j) {
        if (frozen[static_cast<std::size_t>(j)]) continue;
        if (alpha[static_cast<std::size_t>(j)] + 1e-12 >= cost(i, j)) {
          tight.push_back(TightEntry{
              rb + j,
              gamma(static_cast<std::size_t>(i), static_cast<std::size_t>(j))});
        }
      }
      const double pi = paid[static_cast<std::size_t>(i)];
      const double rate =
          pi + 1e-12 < fi ? confl::internal::tight_rate(tight, rb, rows, weight)
                          : 0.0;
      delta = std::min(delta, confl::internal::facility_event_delta(
                                  fi, pi, rate, tight, rb, rows, weight,
                                  beta_rate, gamma_rate,
                                  options.span_threshold, pending));
    }
    if (delta == kInfCost) delta = 0.0;  // nothing to wait for
    return std::max(delta, 0.0);
  };

  std::vector<NodeId> admins;

  auto all_frozen = [&] {
    return std::all_of(frozen.begin(), frozen.end(),
                       [](char f) { return f != 0; });
  };

  // Freeze client j if it is tight with some open facility.
  auto try_freeze_on_open = [&](NodeId j) {
    for (NodeId i = 0; i < n; ++i) {
      if (!open[static_cast<std::size_t>(i)]) continue;
      if (alpha[static_cast<std::size_t>(j)] + 1e-12 >= cost(i, j)) {
        frozen[static_cast<std::size_t>(j)] = 1;
        return;
      }
    }
  };

  int round = 0;
  for (; round < max_rounds && !all_frozen(); ++round) {
    // 1. Grow connection bids (paper line 18) — by the fixed unit, or
    // exactly up to the next event.
    const double delta = options.growth == GrowthMode::kEventDriven
                             ? next_event_delta()
                             : options.alpha_step;
    if (options.growth_trace != nullptr) {
      options.growth_trace->push_back(delta);
    }
    if (delta > 0) {
      for (NodeId j = 0; j < n; ++j) {
        if (!frozen[static_cast<std::size_t>(j)]) {
          alpha[static_cast<std::size_t>(j)] += delta;
        }
      }
    }

    // 2. Tight with an already-open facility → TIGHT request accepted,
    // client freezes (paper lines 21–26).
    for (NodeId j = 0; j < n; ++j) {
      if (!frozen[static_cast<std::size_t>(j)]) try_freeze_on_open(j);
    }

    // 3. Payments and relay bids toward unopened facilities (lines 19–20):
    // tight clients pay β until f_i is covered, then raise γ.
    if (delta > 0) {
      for (NodeId i = 0; i < n; ++i) {
        if (!openable(i)) continue;
        const double fi =
            instance.facility_cost[static_cast<std::size_t>(i)];
        for (NodeId j = 0; j < n; ++j) {
          if (frozen[static_cast<std::size_t>(j)]) continue;
          if (alpha[static_cast<std::size_t>(j)] + 1e-12 < cost(i, j)) {
            continue;  // not tight yet
          }
          if (paid[static_cast<std::size_t>(i)] + 1e-12 < fi) {
            const double pay =
                std::min(weight(j) * beta_rate * delta,
                         fi - paid[static_cast<std::size_t>(i)]);
            beta(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) +=
                pay;
            paid[static_cast<std::size_t>(i)] += pay;
          } else {
            gamma(static_cast<std::size_t>(i),
                  static_cast<std::size_t>(j)) +=
                weight(j) * gamma_rate * delta;
          }
        }
      }
    }

    // 4. Facilities with the facility cost covered and ≥ M SPAN requests
    // become ADMIN (lines 27–44). SPANs from frozen clients are retracted.
    for (NodeId i = 0; i < n; ++i) {
      if (!openable(i)) continue;
      const double fi = instance.facility_cost[static_cast<std::size_t>(i)];
      if (paid[static_cast<std::size_t>(i)] + 1e-12 < fi) continue;
      int spans = 0;
      for (NodeId j = 0; j < n; ++j) {
        if (frozen[static_cast<std::size_t>(j)]) continue;
        if (gamma(static_cast<std::size_t>(i),
                  static_cast<std::size_t>(j)) +
                1e-12 >=
            cost(i, j)) {
          ++spans;
        }
      }
      if (spans < options.span_threshold) continue;

      open[static_cast<std::size_t>(i)] = 1;
      admins.push_back(i);
      // Freeze every client tight with the new ADMIN, plus anyone who has
      // contributed to it (β > 0) — they received a NADMIN response.
      for (NodeId j = 0; j < n; ++j) {
        if (frozen[static_cast<std::size_t>(j)]) continue;
        const bool is_tight =
            alpha[static_cast<std::size_t>(j)] + 1e-12 >= cost(i, j);
        const bool contributed =
            beta(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) >
            0.0;
        if (is_tight || contributed) frozen[static_cast<std::size_t>(j)] = 1;
      }
    }
  }
  FAIRCACHE_CHECK(all_frozen(),
                  "dual growth did not converge within the round budget");

  confl::ConflSolution solution;
  solution.rounds = round;
  const util::Status finished = confl::internal::finish_solution(
      instance, util::RunBudget(), admins, rows, solution);
  FAIRCACHE_CHECK(finished.ok(), "finish_solution failed");
  return solution;
}

}  // namespace faircache::test_oracle
