// Online max-flow scheduling on RELATED machines (the Q rows of Table 1).
//
// Machine j has speed s_j > 0; task i occupies it for p_i / s_j time units.
// Bansal & Cloostermans (Theory of Computing, 2016) study three immediate
// dispatch strategies for Q | online-r_i | Fmax:
//
//   Greedy   — earliest finish time (EFT generalized by speeds);
//              competitive ratio Omega(log m) in the worst case.
//   Slow-Fit — guess-and-double an estimate L of OPT; assign each task to
//              the SLOWEST machine that can finish it within r_i + c*L of
//              its release; Omega(m) in the worst case for max-flow.
//   Double-Fit — combine both: Slow-Fit placement, but the wait bound is
//              checked against both the estimate and the greedy finish
//              time, with the estimate doubled when no machine qualifies.
//              (Our implementation follows the mechanism of the paper's
//              13.5-competitive algorithm — phase-based doubling + slowest-
//              feasible placement with a greedy safety net — without
//              reproducing its exact constants.)
//
// All three extend to processing sets: a task only considers machines in
// M_i. The engine mirrors sched/engine.hpp with per-machine speeds.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "model/instance.hpp"
#include "model/schedule.hpp"

namespace flowsched {

/// Immediate-dispatch policy on related machines.
class RelatedDispatcher {
 public:
  virtual ~RelatedDispatcher() = default;
  virtual void reset(const std::vector<double>& speeds) = 0;
  /// Chooses a machine in t.eligible given the completion frontier.
  virtual int dispatch(const Task& t, const std::vector<double>& completion) = 0;
  virtual std::string name() const = 0;
};

/// Greedy = EFT with speeds: minimize max(r, C_j) + p / s_j; ties toward
/// the lowest index.
class QGreedyDispatcher final : public RelatedDispatcher {
 public:
  void reset(const std::vector<double>& speeds) override { speeds_ = speeds; }
  int dispatch(const Task& t, const std::vector<double>& completion) override;
  std::string name() const override { return "Greedy"; }

 private:
  std::vector<double> speeds_;
};

/// Slow-Fit with guess-and-double estimate. `wait_factor` is the c in
/// "finish within r + c * estimate".
class QSlowFitDispatcher final : public RelatedDispatcher {
 public:
  explicit QSlowFitDispatcher(double wait_factor = 2.0)
      : wait_factor_(wait_factor) {}

  void reset(const std::vector<double>& speeds) override;
  int dispatch(const Task& t, const std::vector<double>& completion) override;
  std::string name() const override { return "Slow-Fit"; }

 private:
  double wait_factor_;
  double estimate_ = 0;
  std::vector<double> speeds_;
  std::vector<std::size_t> by_speed_;  ///< Machine ids, slowest first.
};

/// Double-Fit: Slow-Fit placement bounded by max(c * estimate,
/// 2 * best greedy finish delay); doubling as in Slow-Fit.
class QDoubleFitDispatcher final : public RelatedDispatcher {
 public:
  explicit QDoubleFitDispatcher(double wait_factor = 3.0)
      : wait_factor_(wait_factor) {}

  void reset(const std::vector<double>& speeds) override;
  int dispatch(const Task& t, const std::vector<double>& completion) override;
  std::string name() const override { return "Double-Fit"; }

 private:
  double wait_factor_;
  double estimate_ = 0;
  std::vector<double> speeds_;
  std::vector<std::size_t> by_speed_;
};

/// Replays `inst` through `dispatcher` on machines with the given speeds.
/// Returns the schedule; starts are max(r_i, C_j) and occupation is
/// p_i / s_j. Note Schedule::flow uses p_i directly, so flows are computed
/// here and returned separately.
struct RelatedRun {
  Schedule schedule;            ///< Machines/starts (durations are p/s).
  std::vector<double> flows;    ///< Per-task flow times.
  double max_flow = 0;
};

RelatedRun run_related(const Instance& inst, const std::vector<double>& speeds,
                       RelatedDispatcher& dispatcher);

/// Certified lower bound on the related-machines optimum: max of
/// p_i / s_max and volume bounds W(window) / sum(s) - span.
double related_opt_lower_bound(const Instance& inst,
                               const std::vector<double>& speeds);

}  // namespace flowsched
