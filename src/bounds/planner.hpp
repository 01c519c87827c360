// Capacity planning from the bound landscape: "how many replicas for a
// target p100 flow time?" — answered without simulating.
//
// min_feasible_k() combines two simulation-free oracles:
//
//   * the adversarial necessity of the lower-bound theorems — e.g. on the
//     overlapping ring (size-k intervals) an EFT dispatcher can be driven
//     to Fmax = (m - k + 1) * OPT (Th. 8/10), so a worst-case target
//     Fmax <= F *requires* k >= m + 1 - F/OPT;
//   * the saturation frontier of LP (15) (src/lp/maxload) — below the
//     target flow time is moot if the offered load exceeds the maximum
//     sustainable lambda of the replication scheme, so the planner scans k
//     upward until the LP sustains the offered load. Each k costs one
//     closed-form window scan (max_load_windows), not an LP solve.
//
// For disjoint blocks, Corollary 1 additionally gives a *sufficiency* side:
// every k with (3 - 2/k) * OPT <= F carries a worst-case guarantee.
#pragma once

#include <string>

#include "bounds/bounds.hpp"

namespace flowsched::bounds {

/// \brief A what-if capacity-planning question.
struct PlannerQuery {
  int m = 16;  ///< Cluster size.
  /// Replication structure: kInterval (overlapping ring), kDisjoint
  /// (blocks), or kKSize (arbitrary fixed-size sets). Structures without a
  /// k knob are rejected.
  StructureClass structure = StructureClass::kInterval;
  double target_fmax = 1.0;   ///< Target worst-case (p100) flow time F.
  double opt_estimate = 1.0;  ///< Estimate of the workload's offline optimum
                              ///< Fmax (>= pmax; 1 for unit requests).
  double load = -1.0;         ///< Offered per-machine load rho in [0, 1);
                              ///< negative skips the saturation scan, NaN
                              ///< is rejected.
  double zipf_s = 0.0;        ///< Popularity skew for the saturation LP
                              ///< (worst-case Zipf placement, Section 7.1).
  /// Per-machine steady-state availability target in (0, 1]: the planner
  /// folds the fault model in by planning against the effective cluster
  /// size floor(availability * m) — the machines expected up at once —
  /// while the offered load (load * m) still comes from the full cluster.
  /// 1 (the default) reproduces the fault-free plan.
  double availability = 1.0;
};

/// \brief Planner verdict; `min_k` is meaningful iff `feasible`.
struct PlannerResult {
  bool feasible = false;
  int min_k = 0;         ///< Minimum k passing every applicable constraint.
  int min_replicated_k = 0;  ///< Minimum k >= 2 passing every constraint
                             ///< (0 = none). On the overlapping ring k = 1
                             ///< is always adversarially safe but offers no
                             ///< replication; this is the answer once you
                             ///< insist on actual replicas.
  int adversarial_k = 0; ///< Smallest k the lower-bound theorems allow.
  int saturation_k = 0;  ///< Smallest k sustaining the offered load per
                         ///< LP (15); 0 when the scan was skipped.
  int max_guaranteed_k = 0;  ///< Disjoint only: largest k whose Cor. 1
                             ///< ceiling meets the target (m = all, 0 =
                             ///< none). 0 for other structures.
  int effective_m = 0;   ///< Cluster size the plan was computed against:
                         ///< floor(availability * m).
  std::string binding;   ///< Constraint that fixed min_k ("Th. 8/10",
                         ///< "LP (15) saturation", ...).
  std::string detail;    ///< One-line human-readable reasoning.
};

/// \brief Minimum replication factor meeting `q.target_fmax`, simulation-free.
///
/// \param q the question; requires q.m >= 2, q.target_fmax > 0,
///        q.opt_estimate > 0, a non-NaN q.load, and a structure with a k
///        knob (std::invalid_argument otherwise).
/// \return the verdict. `feasible == false` means no k in [1, m] satisfies
///         every applicable constraint (the detail string says which one
///         failed); results are deterministic (no RNG is consumed).
PlannerResult min_feasible_k(const PlannerQuery& q);

}  // namespace flowsched::bounds
