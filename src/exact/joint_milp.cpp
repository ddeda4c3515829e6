#include "exact/joint_milp.h"

#include <algorithm>
#include <string>

#include "graph/shortest_paths.h"
#include "metrics/contention.h"
#include "steiner/steiner.h"

namespace faircache::exact {

using graph::EdgeId;
using graph::kInfCost;
using graph::NodeId;

namespace {

// Incremental fairness cost of caching the (s+1)-th chunk on a node of
// capacity `cap`: the fairness degree at S = s.
double marginal_fairness(int s, int cap) {
  if (s >= cap) return kInfCost;
  return static_cast<double>(s) / static_cast<double>(cap - s);
}

}  // namespace

JointExactSolution solve_joint_exact(const core::FairCachingProblem& problem,
                                     const JointExactOptions& options) {
  FAIRCACHE_CHECK(problem.network != nullptr, "problem needs a network");
  const graph::Graph& g = *problem.network;
  const int n = g.num_nodes();
  const int q = problem.num_chunks;
  const NodeId root = problem.producer;

  const metrics::CacheState initial = problem.make_initial_state();
  const metrics::ContentionMatrix contention(
      g, initial, options.instance.path_policy);
  auto cost = [&](NodeId i, NodeId j) { return contention.cost(i, j); };

  lp::LpProblem p;
  lp::LinearExpr objective;

  // y_{i,n} per cacheable node and chunk.
  std::vector<std::vector<lp::VarId>> y(
      static_cast<std::size_t>(n),
      std::vector<lp::VarId>(static_cast<std::size_t>(q), -1));
  for (NodeId i = 0; i < n; ++i) {
    if (i == root || initial.capacity(i) == 0) continue;
    for (int c = 0; c < q; ++c) {
      y[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)] =
          p.add_binary_variable(std::string("y") + std::to_string(i) +
                                "_" + std::to_string(c));
    }
  }

  // Level indicators u_{i,s} with increasing marginal fairness costs.
  for (NodeId i = 0; i < n; ++i) {
    if (i == root || initial.capacity(i) == 0) continue;
    const int cap = std::min(initial.capacity(i), q);
    lp::LinearExpr level_sum;
    lp::VarId prev = -1;
    for (int s = 0; s < cap; ++s) {
      const lp::VarId u = p.add_binary_variable(
          std::string("u") + std::to_string(i) + "_" + std::to_string(s));
      objective.add(u, marginal_fairness(s, initial.capacity(i)));
      level_sum.add(u, 1.0);
      if (prev != -1) {
        // u_{i,s} ≤ u_{i,s−1}: levels fill in order.
        p.add_constraint(lp::LinearExpr().add(u, 1.0).add(prev, -1.0),
                         lp::Relation::kLessEqual, 0.0);
      }
      prev = u;
    }
    // Σ_n y_{i,n} = Σ_s u_{i,s} (also enforces the capacity bound).
    lp::LinearExpr chunk_sum;
    for (int c = 0; c < q; ++c) {
      chunk_sum.add(y[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)],
                    1.0);
    }
    for (const auto& term : level_sum.terms()) {
      chunk_sum.add(term.var, -term.coeff);
    }
    p.add_constraint(std::move(chunk_sum), lp::Relation::kEqual, 0.0);
  }

  // Per-chunk assignment, connectivity and dissemination.
  std::vector<std::vector<std::vector<lp::VarId>>> x(
      static_cast<std::size_t>(q));
  for (int c = 0; c < q; ++c) {
    auto& xc = x[static_cast<std::size_t>(c)];
    xc.assign(static_cast<std::size_t>(n),
              std::vector<lp::VarId>(static_cast<std::size_t>(n), -1));

    // Assignment variables (root always allowed; dominated ones pruned).
    for (NodeId j = 0; j < n; ++j) {
      const double root_cost = cost(root, j);
      for (NodeId i = 0; i < n; ++i) {
        const bool is_root = i == root;
        if (!is_root &&
            y[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)] ==
                -1) {
          continue;
        }
        const double cij = cost(i, j);
        if (cij == kInfCost || (!is_root && cij > root_cost)) continue;
        const lp::VarId var = p.add_variable(0.0, 1.0);
        xc[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = var;
        objective.add(var, cij);
      }
    }
    for (NodeId j = 0; j < n; ++j) {
      lp::LinearExpr serve;
      for (NodeId i = 0; i < n; ++i) {
        const lp::VarId var =
            xc[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        if (var != -1) serve.add(var, 1.0);
      }
      p.add_constraint(std::move(serve), lp::Relation::kEqual, 1.0);
      for (NodeId i = 0; i < n; ++i) {
        const lp::VarId var =
            xc[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        const lp::VarId yi =
            i == root ? -1
                      : y[static_cast<std::size_t>(i)]
                         [static_cast<std::size_t>(c)];
        if (var == -1 || yi == -1) continue;
        p.add_constraint(lp::LinearExpr().add(var, 1.0).add(yi, -1.0),
                         lp::Relation::kLessEqual, 0.0);
      }
    }

    // z_e and flow for this chunk.
    std::vector<lp::VarId> z(static_cast<std::size_t>(g.num_edges()));
    std::vector<lp::VarId> ff(static_cast<std::size_t>(g.num_edges()));
    std::vector<lp::VarId> fb(static_cast<std::size_t>(g.num_edges()));
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      z[static_cast<std::size_t>(e)] = p.add_binary_variable();
      objective.add(z[static_cast<std::size_t>(e)],
                    options.instance.edge_scale *
                        contention.edge_costs()[static_cast<std::size_t>(e)]);
      ff[static_cast<std::size_t>(e)] = p.add_variable();
      fb[static_cast<std::size_t>(e)] = p.add_variable();
    }
    for (NodeId v = 0; v < n; ++v) {
      lp::LinearExpr balance;
      for (EdgeId e : g.incident_edges(v)) {
        const graph::Edge& edge = g.edge(e);
        const bool into_v = edge.v == v;
        balance.add(into_v ? ff[static_cast<std::size_t>(e)]
                           : fb[static_cast<std::size_t>(e)],
                    1.0);
        balance.add(into_v ? fb[static_cast<std::size_t>(e)]
                           : ff[static_cast<std::size_t>(e)],
                    -1.0);
      }
      if (v == root) {
        for (NodeId i = 0; i < n; ++i) {
          const lp::VarId yi =
              y[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)];
          if (yi != -1) balance.add(yi, 1.0);
        }
      } else {
        const lp::VarId yv =
            y[static_cast<std::size_t>(v)][static_cast<std::size_t>(c)];
        if (yv != -1) balance.add(yv, -1.0);
      }
      p.add_constraint(std::move(balance), lp::Relation::kEqual, 0.0);
    }
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      p.add_constraint(lp::LinearExpr()
                           .add(ff[static_cast<std::size_t>(e)], 1.0)
                           .add(fb[static_cast<std::size_t>(e)], 1.0)
                           .add(z[static_cast<std::size_t>(e)],
                                -static_cast<double>(n)),
                       lp::Relation::kLessEqual, 0.0);
    }
    // Tree lower bound cut (same as confl_milp).
    const auto root_paths =
        graph::dijkstra_edge_weights(g, root, contention.edge_costs());
    for (NodeId i = 0; i < n; ++i) {
      const lp::VarId yi =
          y[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)];
      if (yi == -1) continue;
      const double dist = root_paths.cost[static_cast<std::size_t>(i)];
      if (dist == kInfCost || dist <= 0.0) continue;
      lp::LinearExpr expr;
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        expr.add(z[static_cast<std::size_t>(e)],
                 contention.edge_costs()[static_cast<std::size_t>(e)]);
      }
      expr.add(yi, -dist);
      p.add_constraint(std::move(expr), lp::Relation::kGreaterEqual, 0.0);
    }
  }

  p.set_objective(lp::Sense::kMinimize, std::move(objective));

  const mip::MipSolution mip_solution =
      mip::BranchAndBoundSolver(options.mip).solve(p);

  JointExactSolution result;
  result.nodes_explored = mip_solution.nodes_explored;
  result.best_bound = mip_solution.best_bound;
  result.proven_optimal = mip_solution.status == mip::MipStatus::kOptimal;
  if (mip_solution.status == mip::MipStatus::kOptimal ||
      mip_solution.status == mip::MipStatus::kFeasible) {
    result.objective = mip_solution.objective;
    result.cache_nodes.assign(static_cast<std::size_t>(q), {});
    for (NodeId i = 0; i < n; ++i) {
      for (int c = 0; c < q; ++c) {
        const lp::VarId yi =
            y[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)];
        if (yi != -1 &&
            mip_solution.values[static_cast<std::size_t>(yi)] > 0.5) {
          result.cache_nodes[static_cast<std::size_t>(c)].push_back(i);
        }
      }
    }
  }
  return result;
}

double joint_objective(const core::FairCachingProblem& problem,
                       const std::vector<std::vector<NodeId>>& nodes,
                       const core::InstanceOptions& options) {
  FAIRCACHE_CHECK(problem.network != nullptr, "problem needs a network");
  const graph::Graph& g = *problem.network;
  const metrics::CacheState initial = problem.make_initial_state();
  const metrics::ContentionMatrix contention(g, initial,
                                             options.path_policy);
  const NodeId root = problem.producer;

  double total = 0.0;
  std::vector<int> load(static_cast<std::size_t>(g.num_nodes()), 0);
  for (const auto& holders : nodes) {
    // Fairness marginals.
    for (NodeId i : holders) {
      total += marginal_fairness(load[static_cast<std::size_t>(i)],
                                 initial.capacity(i));
      ++load[static_cast<std::size_t>(i)];
    }
    // Access.
    for (NodeId j = 0; j < g.num_nodes(); ++j) {
      double best = contention.cost(root, j);
      for (NodeId i : holders) {
        best = std::min(best, contention.cost(i, j));
      }
      total += best;
    }
    // Dissemination (exact tree).
    if (!holders.empty()) {
      std::vector<NodeId> terminals = holders;
      terminals.push_back(root);
      total += options.edge_scale *
               steiner::steiner_exact_dreyfus_wagner(
                   g, contention.edge_costs(), terminals);
    }
  }
  return total;
}

}  // namespace faircache::exact
