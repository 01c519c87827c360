#include "bounds/planner.hpp"

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "lp/maxload.hpp"
#include "util/rng.hpp"
#include "workload/popularity.hpp"
#include "workload/replication.hpp"

namespace flowsched::bounds {
namespace {

constexpr double kEps = 1e-9;

// Worst competitive ratio the landscape's lower bounds allow an EFT
// dispatcher to be driven to at (m, k, structure). k = 1 pins every task to
// one machine, where FIFO is optimal for Fmax, so the ratio is 1; k = m on
// the k-parameterized structures degenerates to the unrestricted Th. 1
// guarantee. Large p stands in for the p -> inf limits of Th. 4/7.
double worst_case_ratio(StructureClass structure, int m, int k) {
  if (k <= 1) return 1.0;
  if (k >= m) return theorem1_ratio(m).to_double();
  const BoundQuery q{m, k, structure, AlgoClass::kEftMin, Rational(1 << 20)};
  const BoundCell cell = evaluate_cell(q);
  return cell.lower.known ? cell.lower.ratio.to_double() : 1.0;
}

}  // namespace

PlannerResult min_feasible_k(const PlannerQuery& q) {
  if (q.m < 2) throw std::invalid_argument("min_feasible_k: m >= 2");
  if (!(q.target_fmax > 0)) throw std::invalid_argument("min_feasible_k: target_fmax > 0");
  if (!(q.opt_estimate > 0)) throw std::invalid_argument("min_feasible_k: opt_estimate > 0");
  if (std::isnan(q.load)) throw std::invalid_argument("min_feasible_k: load is NaN");
  const bool uses_k = q.structure == StructureClass::kKSize ||
                      q.structure == StructureClass::kInterval ||
                      q.structure == StructureClass::kDisjoint;
  if (!uses_k) {
    throw std::invalid_argument(
        "min_feasible_k: structure has no replication knob (use interval, "
        "disjoint, or ksize)");
  }

  if (!(q.availability > 0.0) || q.availability > 1.0 + kEps) {
    throw std::invalid_argument("min_feasible_k: availability in (0, 1]");
  }

  PlannerResult result;
  // The fault model enters as a derating: every oracle below runs on the
  // machines expected up at once, floor(availability * m). The offered
  // load still counts the FULL cluster's arrivals — the survivors carry
  // them — so availability squeezes the plan from both sides.
  const int m = static_cast<int>(std::floor(q.availability * q.m + kEps));
  result.effective_m = m;
  if (m < 2) {
    result.detail =
        "infeasible: availability leaves fewer than 2 machines up";
    result.binding = "availability";
    return result;
  }

  // Allowed worst-case ratio: Fmax <= F needs ratio <= F / OPT.
  const double budget = q.target_fmax / q.opt_estimate;
  std::ostringstream detail;

  if (budget < 1.0 - kEps) {
    result.detail = "infeasible: target below the offline optimum (F < OPT)";
    result.binding = "F >= OPT";
    return result;
  }

  // Per-k adversarial feasibility. Note it is NOT monotone in k on the
  // overlapping ring: k = 1 (no routing freedom) is always safe, while
  // 1 < k < m admits the Th. 8/10 stream with ratio m - k + 1.
  const auto adversarial_ok = [&](int k) {
    return worst_case_ratio(q.structure, m, k) <= budget + kEps;
  };
  for (int k = 1; k <= m; ++k) {
    if (adversarial_ok(k)) {
      result.adversarial_k = k;
      break;
    }
  }

  // Cor. 1 sufficiency on disjoint blocks: the (3 - 2/k) ceiling rises with
  // k, so the guaranteed region is the prefix k <= max_guaranteed_k.
  if (q.structure == StructureClass::kDisjoint) {
    for (int k = 1; k <= m; ++k) {
      if (corollary1_ratio(k).to_double() <= budget + kEps) {
        result.max_guaranteed_k = k;
      }
    }
  }

  // Saturation frontier: smallest k whose replication scheme sustains the
  // offered load lambda = rho * m under worst-case Zipf placement (LP (15)).
  // Only the two concrete schemes map to replica sets; ksize has none. Both
  // are arcs, so the closed-form window scan gives the LP optimum.
  const bool scan_load = q.load >= 0.0 && q.structure != StructureClass::kKSize;
  std::vector<bool> saturated;
  if (scan_load) {
    const ReplicationStrategy strategy = q.structure == StructureClass::kDisjoint
                                             ? ReplicationStrategy::kDisjoint
                                             : ReplicationStrategy::kOverlapping;
    Rng rng(0);  // kWorstCase ignores the generator
    const std::vector<double> popularity =
        make_popularity(PopularityCase::kWorstCase, m, q.zipf_s, rng);
    const double offered = q.load * q.m;
    const std::vector<std::uint8_t> all_up(static_cast<std::size_t>(m), 1);
    saturated.assign(static_cast<std::size_t>(m) + 1, true);
    for (int k = 1; k <= m; ++k) {
      const double lambda =
          max_load_windows(popularity, strategy, k, all_up).lambda;
      saturated[static_cast<std::size_t>(k)] = offered > lambda + kEps;
      if (!saturated[static_cast<std::size_t>(k)] && result.saturation_k == 0) {
        result.saturation_k = k;
      }
    }
    if (result.saturation_k == 0) {
      result.detail = "infeasible: offered load exceeds the LP (15) maximum "
                      "even at k = m";
      result.binding = "LP (15) saturation";
      return result;
    }
  }

  // Combined verdict: smallest k passing both oracles, plus the smallest
  // k >= 2 for deployments that insist on actual replication.
  for (int k = 1; k <= m; ++k) {
    if (scan_load && saturated[static_cast<std::size_t>(k)]) continue;
    if (!adversarial_ok(k)) continue;
    if (!result.feasible) {
      result.feasible = true;
      result.min_k = k;
    }
    if (k >= 2) {
      result.min_replicated_k = k;
      break;
    }
  }
  if (!result.feasible) {
    result.detail = "infeasible: every k is either saturated or admits an "
                    "adversarial stream above the target";
    result.binding = "Th. 8/10 x LP (15)";
    return result;
  }

  const bool load_bound = scan_load && result.min_k == result.saturation_k &&
                          result.min_k > result.adversarial_k;
  if (load_bound) {
    result.binding = "LP (15) saturation";
  } else if (result.min_k > 1 && q.structure != StructureClass::kDisjoint) {
    result.binding = q.structure == StructureClass::kInterval ? "Th. 8/10" : "Th. 4/8/10";
  } else {
    result.binding = "trivial (k = 1 safe)";
  }

  detail << "k = " << result.min_k << " on " << to_string(q.structure)
         << ": worst-case ratio "
         << worst_case_ratio(q.structure, m, result.min_k) << " <= F/OPT = "
         << budget;
  if (scan_load) detail << "; sustains rho = " << q.load << " (LP 15)";
  if (result.min_replicated_k > result.min_k) {
    detail << "; smallest replicated choice k = " << result.min_replicated_k;
  }
  if (q.structure == StructureClass::kDisjoint) {
    if (result.max_guaranteed_k >= result.min_k) {
      detail << "; Cor. 1 guarantees Fmax <= (3 - 2/k) * OPT <= " << q.target_fmax;
    } else {
      detail << "; NOTE: no Cor. 1 guarantee at this k (needs k <= "
             << result.max_guaranteed_k << ")";
    }
  }
  if (q.availability < 1.0 - kEps) {
    detail << "; planned on effective m = " << m << " of " << q.m
           << " at availability " << q.availability;
  }
  result.detail = detail.str();
  return result;
}

}  // namespace flowsched::bounds
