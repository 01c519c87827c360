#include "lp/maxload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "lp/maxflow.hpp"
#include "lp/simplex.hpp"

namespace flowsched {
namespace {

// Every max-load entry point accepts the same popularity vectors: non-empty,
// finite, non-negative, and not all zero (lambda would be unbounded).
void check_popularity(const std::vector<double>& popularity) {
  if (popularity.empty()) {
    throw std::invalid_argument("max_load: empty popularity");
  }
  bool positive = false;
  for (double p : popularity) {
    if (!std::isfinite(p)) {
      throw std::invalid_argument("max_load: non-finite popularity");
    }
    if (p < 0) throw std::invalid_argument("max_load: negative popularity");
    positive = positive || p > 0;
  }
  if (!positive) throw std::invalid_argument("max_load: zero popularity");
}

void check_inputs(const std::vector<double>& popularity,
                  const std::vector<ProcSet>& replica_sets) {
  check_popularity(popularity);
  const int m = static_cast<int>(popularity.size());
  if (replica_sets.size() != popularity.size()) {
    throw std::invalid_argument("max_load: popularity/replica size mismatch");
  }
  for (const auto& set : replica_sets) {
    if (set.empty() || !set.within(m)) {
      throw std::invalid_argument("max_load: bad replica set");
    }
  }
}

/// LP (15) for one popularity vector, with the crash basis max_load_lp
/// starts from and the (machine, var) list of each owner's transfers.
struct Lp15 {
  LpProblemD lp;
  std::vector<int> crash;
  std::vector<std::vector<std::pair<int, int>>> vars;
};

Lp15 build_lp15(const std::vector<double>& popularity,
                const std::vector<ProcSet>& sets) {
  const int m = static_cast<int>(sets.size());
  Lp15 out;
  LpProblemD& lp = out.lp;
  const int lambda_var = lp.add_var(1.0);  // maximize lambda
  out.vars.assign(static_cast<std::size_t>(m), {});
  std::vector<std::vector<std::pair<int, double>>> capacity_terms(
      static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) {
    auto& owner_vars = out.vars[static_cast<std::size_t>(j)];
    for (int i : sets[static_cast<std::size_t>(j)].machines()) {
      const int v = lp.add_var(0.0);
      owner_vars.emplace_back(i, v);
      capacity_terms[static_cast<std::size_t>(i)].emplace_back(v, 1.0);
    }
  }
  // (15b) conservation: sum_i a_ij - lambda P(E_j) = 0, row j. The crash
  // basis pairs row j with one of owner j's transfer variables, rotating
  // through the replica set so no machine's capacity row collects all the
  // picks. Triangular, hence nonsingular, and feasible at a = 0,
  // lambda = 0, so phase 1 is skipped.
  for (int j = 0; j < m; ++j) {
    const auto& owner_vars = out.vars[static_cast<std::size_t>(j)];
    std::vector<std::pair<int, double>> terms;
    terms.reserve(owner_vars.size() + 1);
    for (const auto& [i, v] : owner_vars) terms.emplace_back(v, 1.0);
    terms.emplace_back(lambda_var, -popularity[static_cast<std::size_t>(j)]);
    lp.add_constraint(terms, Relation::kEq, 0.0);
    out.crash.push_back(
        owner_vars[static_cast<std::size_t>(j) % owner_vars.size()].second);
  }
  // (15c) capacity: sum_j a_ij <= 1. These rows keep their slack (-1).
  for (int i = 0; i < m; ++i) {
    const auto& terms = capacity_terms[static_cast<std::size_t>(i)];
    if (!terms.empty()) lp.add_constraint(terms, Relation::kLe, 1.0);
  }
  out.crash.resize(static_cast<std::size_t>(lp.num_constraints()), -1);
  return out;
}

MaxLoadResult extract_result(
    const LpSolution<double>& sol, int m,
    const std::vector<std::vector<std::pair<int, int>>>& vars) {
  MaxLoadResult result;
  result.lambda = sol.objective;
  result.transfer.assign(static_cast<std::size_t>(m),
                         std::vector<double>(static_cast<std::size_t>(m), 0.0));
  for (int j = 0; j < m; ++j) {
    for (const auto& [i, v] : vars[static_cast<std::size_t>(j)]) {
      result.transfer[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          sol.x[static_cast<std::size_t>(v)];
    }
  }
  return result;
}

}  // namespace

MaxLoadResult max_load_lp(const std::vector<double>& popularity,
                          const std::vector<ProcSet>& replica_sets) {
  check_inputs(popularity, replica_sets);
  const Lp15 lp15 = build_lp15(popularity, replica_sets);
  const auto sol = lp15.lp.solve(lp15.crash);
  if (sol.status != LpStatus::kOptimal) {
    throw std::runtime_error("max_load_lp: simplex did not reach optimality");
  }
  return extract_result(sol, static_cast<int>(replica_sets.size()), lp15.vars);
}

MaxLoadResult max_load_lp_tableau(const std::vector<double>& popularity,
                                  const std::vector<ProcSet>& replica_sets) {
  check_inputs(popularity, replica_sets);
  const Lp15 lp15 = build_lp15(popularity, replica_sets);
  const auto sol = lp15.lp.solve_tableau();
  if (sol.status != LpStatus::kOptimal) {
    throw std::runtime_error("max_load_lp_tableau: no optimum");
  }
  return extract_result(sol, static_cast<int>(replica_sets.size()), lp15.vars);
}

double max_load_flow(const std::vector<double>& popularity,
                     const std::vector<ProcSet>& replica_sets, double tol) {
  check_inputs(popularity, replica_sets);
  const int m = static_cast<int>(popularity.size());
  double total_pop = 0;
  for (double p : popularity) total_pop += p;

  // Feasibility oracle: route lambda*P(E_j) from each owner through its
  // replicas, each machine serving at most 1 unit of work per time unit.
  // Every capacity is linear in lambda (or constant), so the network is
  // built once and probes only rescale capacities — no per-probe graph
  // rebuild (the edge lists alone are ~m*k allocations).
  MaxFlow flow(2 * m + 2);
  const int source = 2 * m;
  const int sink = 2 * m + 1;
  std::vector<std::pair<int, double>> scaled;  // (edge id, capacity at lambda=1)
  std::vector<int> unit_edges;                 // machine->sink, capacity 1
  double unit_demand = 0;
  for (int j = 0; j < m; ++j) {
    const double d = popularity[static_cast<std::size_t>(j)];
    unit_demand += d;
    scaled.emplace_back(flow.add_edge(source, j, d), d);
    for (int i : replica_sets[static_cast<std::size_t>(j)].machines()) {
      scaled.emplace_back(flow.add_edge(j, m + i, d), d);
    }
  }
  for (int i = 0; i < m; ++i) {
    unit_edges.push_back(flow.add_edge(m + i, sink, 1.0));
  }
  const auto feasible = [&](double lambda) {
    for (const auto& [id, cap] : scaled) flow.set_capacity(id, lambda * cap);
    for (int id : unit_edges) flow.set_capacity(id, 1.0);
    return flow.solve(source, sink) >= lambda * unit_demand - 1e-9;
  };

  double lo = 0.0;
  double hi = static_cast<double>(m) / total_pop;  // machines can't do more
  if (feasible(hi)) return hi;
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    (feasible(mid) ? lo : hi) = mid;
  }
  return lo;
}

double max_load_unreplicated(const std::vector<double>& popularity) {
  check_popularity(popularity);
  return 1.0 / *std::max_element(popularity.begin(), popularity.end());
}

WindowLoadResult max_load_windows(const std::vector<double>& popularity,
                                  ReplicationStrategy strategy, int k,
                                  const std::vector<std::uint8_t>& up) {
  check_popularity(popularity);
  const int m = static_cast<int>(popularity.size());
  if (up.size() != popularity.size()) {
    throw std::invalid_argument("max_load_windows: popularity/up size mismatch");
  }
  if (k < 1 || k > m) {
    throw std::invalid_argument("max_load_windows: need 1 <= k <= m");
  }
  if (strategy != ReplicationStrategy::kOverlapping &&
      strategy != ReplicationStrategy::kDisjoint) {
    throw std::invalid_argument(
        "max_load_windows: only overlapping and disjoint layouts are arcs");
  }
  // Owner u's arc [lo(u), hi(u)] in unwrapped machine coordinates, for u
  // over two laps (owner u >= m is owner u - m shifted by m), so a window
  // that wraps past owner m-1 keeps monotone endpoints. up_prefix[i] counts
  // the up machines among unwrapped positions [0, i).
  const bool ring = strategy == ReplicationStrategy::kOverlapping;
  const std::size_t laps = 2 * static_cast<std::size_t>(m);
  std::vector<int> lo(laps);
  std::vector<int> hi(laps);
  std::vector<int> up_prefix(laps + 1, 0);
  for (std::size_t u = 0; u < laps; ++u) {
    const int j = static_cast<int>(u % static_cast<std::size_t>(m));
    const int shift = static_cast<int>(u) - j;
    const int first = ring ? j : k * (j / k);
    const int last = ring ? j + k - 1 : std::min(m - 1, first + k - 1);
    lo[u] = shift + first;
    hi[u] = shift + last;
    up_prefix[u + 1] = up_prefix[u] + (up[static_cast<std::size_t>(j)] ? 1 : 0);
  }

  // Window W = owners [a, a+L): N(W) is the up machines in the cyclic range
  // from lo(a) spanning min(m, hi(a+L-1) - lo(a) + 1). p(W) accumulates
  // along L rather than as a prefix-sum difference, which would cancel
  // digits on short windows.
  WindowLoadResult best;
  bool have = false;
  for (int a = 0; a < m; ++a) {
    const int start = lo[static_cast<std::size_t>(a)];
    double mass = 0.0;
    for (int len = 1; len <= m; ++len) {
      const std::size_t last = static_cast<std::size_t>(a + len - 1);
      mass += popularity[last < static_cast<std::size_t>(m)
                             ? last
                             : last - static_cast<std::size_t>(m)];
      if (mass == 0.0) continue;
      const int span = std::min(m, hi[last] - start + 1);
      const int served = up_prefix[static_cast<std::size_t>(start + span)] -
                         up_prefix[static_cast<std::size_t>(start)];
      const double ratio = static_cast<double>(served) / mass;
      if (!have || ratio < best.lambda) {
        have = true;
        best = WindowLoadResult{ratio, a, len};
        // Nothing beats an unserved owner: the first zero is the answer.
        if (served == 0) return best;
      }
    }
  }
  return best;
}

}  // namespace flowsched
