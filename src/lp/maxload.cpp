#include "lp/maxload.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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

/// LP (15) for one popularity vector, with the (machine, var) list of each
/// owner's transfers.
struct Lp15 {
  LpProblemD lp;
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
  // (15b) conservation: sum_i a_ij - lambda P(E_j) = 0, row j.
  for (int j = 0; j < m; ++j) {
    std::vector<std::pair<int, double>> terms;
    for (const auto& [i, v] : out.vars[static_cast<std::size_t>(j)]) {
      terms.emplace_back(v, 1.0);
    }
    terms.emplace_back(lambda_var, -popularity[static_cast<std::size_t>(j)]);
    lp.add_constraint(terms, Relation::kEq, 0.0);
  }
  // (15c) capacity: sum_j a_ij <= 1.
  for (int i = 0; i < m; ++i) {
    const auto& terms = capacity_terms[static_cast<std::size_t>(i)];
    if (!terms.empty()) lp.add_constraint(terms, Relation::kLe, 1.0);
  }
  return out;
}

/// |N(S)| / p(S) for the owners with in_s[j] != 0; infinity when p(S) = 0.
double hall_ratio(const std::vector<double>& popularity,
                  const std::vector<ProcSet>& sets,
                  const std::vector<std::uint8_t>& in_s) {
  const std::size_t m = popularity.size();
  std::vector<std::uint8_t> served(m, 0);
  int neighbours = 0;
  double mass = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    if (!in_s[j]) continue;
    mass += popularity[j];
    for (int i : sets[j].machines()) {
      if (!served[static_cast<std::size_t>(i)]) {
        served[static_cast<std::size_t>(i)] = 1;
        ++neighbours;
      }
    }
  }
  return mass > 0 ? neighbours / mass : std::numeric_limits<double>::infinity();
}

}  // namespace

MaxLoadResult max_load_lp(const std::vector<double>& popularity,
                          const std::vector<ProcSet>& replica_sets) {
  check_inputs(popularity, replica_sets);
  const int m = static_cast<int>(popularity.size());
  // source -> owner j (lambda * P(E_j)) -> its replicas -> sink (1). An
  // owner edge carries at most 1, so capacity m + 1 is never saturated and
  // a min cut only ever crosses source and sink edges: the source side is
  // an owner set S plus exactly N(S), and the cut costs
  // lambda * p(not S) + |N(S)|.
  MaxFlow flow(2 * m + 2);
  const int source = 2 * m;
  const int sink = 2 * m + 1;
  const double unsaturated = static_cast<double>(m) + 1.0;
  std::vector<int> source_edges;
  std::vector<int> owner_edges;  // owner-major, replica-set order
  std::vector<int> sink_edges;
  for (int j = 0; j < m; ++j) {
    source_edges.push_back(flow.add_edge(source, j, 0.0));
    for (int i : replica_sets[static_cast<std::size_t>(j)].machines()) {
      owner_edges.push_back(flow.add_edge(j, m + i, unsaturated));
    }
  }
  for (int i = 0; i < m; ++i) {
    sink_edges.push_back(flow.add_edge(m + i, sink, 1.0));
  }

  // Dinkelbach: lambda is feasible iff no owner set has a smaller ratio.
  // A flow short of lambda * p(all) leaves a min cut whose owner set S has
  // |N(S)| < lambda * p(S), i.e. a strictly smaller ratio; a saturating
  // flow leaves S empty. Each step strictly lowers lambda over finitely
  // many ratios, so the loop ends.
  std::vector<std::uint8_t> in_s(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) {
    in_s[static_cast<std::size_t>(j)] =
        popularity[static_cast<std::size_t>(j)] > 0 ? 1 : 0;
  }
  double lambda = hall_ratio(popularity, replica_sets, in_s);
  while (true) {
    for (int j = 0; j < m; ++j) {
      flow.set_capacity(source_edges[static_cast<std::size_t>(j)],
                        lambda * popularity[static_cast<std::size_t>(j)]);
    }
    for (int id : owner_edges) flow.set_capacity(id, unsaturated);
    for (int id : sink_edges) flow.set_capacity(id, 1.0);
    flow.solve(source, sink);
    const std::vector<std::uint8_t> side = flow.source_side(source);
    std::copy_n(side.begin(), m, in_s.begin());
    const double ratio = hall_ratio(popularity, replica_sets, in_s);
    if (!(ratio < lambda)) break;
    lambda = ratio;
  }

  MaxLoadResult result;
  result.lambda = lambda;
  result.transfer.resize(static_cast<std::size_t>(m));
  std::size_t edge = 0;
  for (int j = 0; j < m; ++j) {
    auto& moves = result.transfer[static_cast<std::size_t>(j)];
    for (int i : replica_sets[static_cast<std::size_t>(j)].machines()) {
      moves.emplace_back(i, flow.flow_on(owner_edges[edge++]));
    }
  }
  return result;
}

MaxLoadResult max_load_lp_tableau(const std::vector<double>& popularity,
                                  const std::vector<ProcSet>& replica_sets) {
  check_inputs(popularity, replica_sets);
  const Lp15 lp15 = build_lp15(popularity, replica_sets);
  const auto sol = lp15.lp.solve();
  if (sol.status != LpStatus::kOptimal) {
    throw std::runtime_error("max_load_lp_tableau: no optimum");
  }
  MaxLoadResult result;
  result.lambda = sol.objective;
  for (const auto& owner_vars : lp15.vars) {
    auto& moves = result.transfer.emplace_back();
    for (const auto& [i, v] : owner_vars) {
      moves.emplace_back(i, sol.x[static_cast<std::size_t>(v)]);
    }
  }
  return result;
}

double max_load_unreplicated(const std::vector<double>& popularity) {
  check_popularity(popularity);
  return 1.0 / *std::max_element(popularity.begin(), popularity.end());
}

namespace detail {
namespace {

// Owner u's arc [lo(u), hi(u)] in unwrapped machine coordinates, for u over
// two laps (owner u >= m is owner u - m shifted by m), so a window that
// wraps past owner m-1 keeps monotone endpoints.
struct Arc {
  int lo;
  int hi;
};

std::vector<Arc> unwrapped_arcs(ReplicationStrategy strategy, int k, int m) {
  const bool ring = strategy == ReplicationStrategy::kOverlapping;
  const std::size_t ms = static_cast<std::size_t>(m);
  std::vector<Arc> arcs(2 * ms);
  int block = 0;  // first owner of j's block
  for (int j = 0; j < m; ++j) {
    if (j - block == k) block = j;
    const int first = ring ? j : block;
    const int last = ring ? j + k - 1 : std::min(m - 1, block + k - 1);
    arcs[static_cast<std::size_t>(j)] = Arc{first, last};
    arcs[ms + static_cast<std::size_t>(j)] = Arc{m + first, m + last};
  }
  return arcs;
}

// up_prefix[i] counts the up machines among unwrapped positions [0, i), for
// i over three laps (an arc of the second lap may end in the third).
std::vector<int> unwrapped_up_prefix(const std::vector<std::uint8_t>& up) {
  const std::size_t m = up.size();
  std::vector<int> prefix(3 * m + 1, 0);
  for (std::size_t i = 0; i < m; ++i) prefix[i + 1] = prefix[i] + (up[i] ? 1 : 0);
  const int total = prefix[m];
  for (std::size_t i = m + 1; i <= 3 * m; ++i) prefix[i] = prefix[i - m] + total;
  return prefix;
}

}  // namespace

WindowLoadResult max_load_windows_weighted(
    const std::vector<double>& popularity, ReplicationStrategy strategy, int k,
    const std::vector<std::uint8_t>& up) {
  const int m = static_cast<int>(popularity.size());
  const std::vector<Arc> arcs = unwrapped_arcs(strategy, k, m);
  const std::vector<int> up_prefix = unwrapped_up_prefix(up);

  // Window W = owners [a, a+L): N(W) is the up machines in the cyclic range
  // from lo(a) spanning min(m, hi(a+L-1) - lo(a) + 1). p(W) accumulates
  // along L rather than as a prefix-sum difference, which would cancel
  // digits on short windows.
  WindowLoadResult best;
  bool have = false;
  for (int a = 0; a < m; ++a) {
    const int start = arcs[static_cast<std::size_t>(a)].lo;
    double mass = 0.0;
    for (int len = 1; len <= m; ++len) {
      const std::size_t last = static_cast<std::size_t>(a + len - 1);
      mass += popularity[last < static_cast<std::size_t>(m)
                             ? last
                             : last - static_cast<std::size_t>(m)];
      if (mass == 0.0) continue;
      const int span = std::min(m, arcs[last].hi - start + 1);
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

WindowLoadResult max_load_windows_equal(double weight,
                                        ReplicationStrategy strategy, int k,
                                        const std::vector<std::uint8_t>& up) {
  const int m = static_cast<int>(up.size());
  const std::size_t ms = up.size();
  const std::vector<Arc> arcs = unwrapped_arcs(strategy, k, m);
  const std::vector<int> up_prefix = unwrapped_up_prefix(up);
  const int total_up = up_prefix[ms];

  // Window (a, L) is served by min(total_up, up_end[a+L-1] - up_lo[a]) up
  // machines: the unwrapped range [lo(a), hi(a+L-1)] counts every machine
  // at least once as soon as it spans a lap.
  std::vector<int> up_lo(ms);
  std::vector<int> up_end(2 * ms);
  for (std::size_t u = 0; u < 2 * ms; ++u) {
    if (u < ms) up_lo[u] = up_prefix[static_cast<std::size_t>(arcs[u].lo)];
    up_end[u] = up_prefix[static_cast<std::size_t>(arcs[u].hi + 1)];
  }
  const auto served = [&](int a, int len) {
    return std::min(total_up, up_end[static_cast<std::size_t>(a + len - 1)] -
                                  up_lo[static_cast<std::size_t>(a)]);
  };

  // Every window of L owners has the same mass, accumulated in the same
  // order as the weighted scan, so its ratio is least where it is served by
  // the fewest machines: division by a positive mass is monotone. One
  // division per length instead of one per window.
  std::vector<double> mass(ms + 1, 0.0);
  std::vector<double> ratio(ms + 1, 0.0);
  double lambda = 0.0;
  for (std::size_t len = 1; len <= ms; ++len) {
    mass[len] = mass[len - 1] + weight;
    const int* end = up_end.data() + (len - 1);
    const int* lo = up_lo.data();
    int fewest = total_up;
    for (std::size_t a = 0; a < ms; ++a) {
      fewest = std::min(fewest, end[a] - lo[a]);
    }
    ratio[len] = static_cast<double>(fewest) / mass[len];
    if (len == 1 || ratio[len] < lambda) lambda = ratio[len];
  }

  // The weighted scan keeps the first strict minimum in (a, L) order. Only
  // lengths whose ratio is lambda can hold it; in each, the first start
  // whose own ratio rounds to lambda (not just the fewest-served start:
  // two counts may round to one ratio) competes by start, then by length.
  WindowLoadResult best{lambda, m, 0};
  for (int len = 1; len <= m; ++len) {
    if (ratio[static_cast<std::size_t>(len)] != lambda) continue;
    for (int a = 0; a < best.first; ++a) {
      if (static_cast<double>(served(a, len)) /
              mass[static_cast<std::size_t>(len)] ==
          lambda) {
        best.first = a;
        best.count = len;
        break;
      }
    }
  }
  return best;
}

}  // namespace detail

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
  const double weight = popularity.front();
  const bool equal = std::all_of(popularity.begin(), popularity.end(),
                                 [weight](double p) { return p == weight; });
  return equal ? detail::max_load_windows_equal(weight, strategy, k, up)
               : detail::max_load_windows_weighted(popularity, strategy, k, up);
}

}  // namespace flowsched
