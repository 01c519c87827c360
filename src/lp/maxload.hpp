// Theoretical maximum cluster load under replication (Section 7.2, LP (15)).
//
// Given a popularity distribution P(E_j) over the m machines (the share of
// requests whose key is *owned* by machine j) and a replication scheme
// mapping each owner j to the replica set I_k(j) of machines able to serve
// its keys, the maximum sustainable cluster load is
//
//     maximize lambda
//     s.t.  for all owners j:     sum_i a_ij  = lambda * P(E_j)
//           for all machines i:   sum_j a_ij <= 1
//           a_ij = 0 when M_i not in I_k(j),   a_ij >= 0.
//
// By max-flow/min-cut (Hall's condition for fractional demands) the optimum
// is lambda* = min over owner sets S with p(S) > 0 of |N(S)| / p(S), N(S)
// the machines serving S (docs/lp.md). max_load_lp finds the binding set
// with Dinkelbach's iteration over one Dinic network; the dense simplex
// tableau (max_load_lp_tableau) is the reference oracle that checks it.
// For ring and block layouts (optionally degraded to the machines that are
// up) max_load_windows() gives the same optimum in closed form; the Fig. 10
// sweep and the capacity planner use it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "model/procset.hpp"
#include "workload/replication.hpp"

namespace flowsched {

/// Result of the max-load analysis. `lambda` is the LP optimum; dividing by
/// m gives the sustainable average cluster load in [0, 1] when sum P = 1.
struct MaxLoadResult {
  double lambda = 0.0;
  /// transfer[j]: (machine i, work per time unit moved from owner j to i)
  /// for every i in I_k(j), in replica-set order.
  std::vector<std::vector<std::pair<int, double>>> transfer;
};

/// Solves LP (15) as a Hall ratio. Dinkelbach's iteration starts at the
/// ratio of all owners with positive popularity; each step routes
/// lambda * P(E_j) out of every owner on one Dinic network (only the source
/// capacities change between steps) and, when the flow falls short, moves
/// lambda to the strictly smaller ratio of the min cut's owner set. It
/// stops when no smaller ratio appears, so lambda is always the exact
/// |N(S)| / p(S) of a concrete owner set S.
/// `replica_sets[j]` = I_k(j), one non-empty set within [0, m) per owner.
/// More generally, each index j is an *origin* of work (a machine in the
/// paper; a key works too, as in bench_ext_ring) while replica-set members
/// are the serving machines — origins that no set references simply
/// contribute idle capacity-1 nodes.
MaxLoadResult max_load_lp(const std::vector<double>& popularity,
                          const std::vector<ProcSet>& replica_sets);

/// Same program through the dense simplex tableau — O(rows*cols) per
/// priced column, only viable at small m. The reference oracle of the
/// cross-checks and the micro_lp baseline.
MaxLoadResult max_load_lp_tableau(const std::vector<double>& popularity,
                                  const std::vector<ProcSet>& replica_sets);

/// Max load without replication: lambda <= 1 / max_j P(E_j) (Section 7.2).
double max_load_unreplicated(const std::vector<double>& popularity);

/// LP (15) optimum of an interval layout and the owner window that binds it.
struct WindowLoadResult {
  double lambda = 0.0;
  int first = 0;  ///< First owner of the binding window.
  int count = 0;  ///< Owners in the window, cyclically from `first` (1..m).
};

/// LP (15) in closed form for the overlapping ring and the disjoint blocks,
/// each owner's replica set restricted to the machines with `up[i] != 0`.
/// Every set is then a circular arc with endpoints monotone in the owner, so
/// by Hall's condition lambda* = min over cyclic owner windows W with
/// p(W) > 0 of |N(W)| / p(W), N(W) the up machines serving W
/// (docs/lp.md). O(m^2), no LP built. The binding window is the first strict
/// minimum in (first, count) order; lambda = 0 when some owner with positive
/// popularity has no up replica. Throws std::invalid_argument for other
/// strategies (kSpread sets are not arcs: use max_load_lp).
WindowLoadResult max_load_windows(const std::vector<double>& popularity,
                                  ReplicationStrategy strategy, int k,
                                  const std::vector<std::uint8_t>& up);

}  // namespace flowsched
