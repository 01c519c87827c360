// Schedules and their feasibility validation / flow-time metrics.
//
// A schedule maps each task T_i to a machine mu_i and a start time sigma_i
// (the paper's Pi(i) = (mu_i, sigma_i)). Completion is C_i = sigma_i + p_i
// and the flow time is F_i = C_i - r_i; the objective throughout the paper
// is Fmax = max_i F_i.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "model/instance.hpp"

namespace flowsched {

struct Assignment {
  int machine = -1;  ///< -1 means unassigned.
  double start = 0.0;
};

/// w * f with a Rational-exact product when both factors are representable
/// (dyadic-grid weights and flows always are), double fallback otherwise.
/// At w == 1 that product is f exactly, returned without the Rational detour.
/// Shared by Schedule, MetricsCollector, and the auditor so their weighted
/// aggregates are comparable bitwise, not just within an epsilon.
double weighted_flow_term(double w, double f);

/// Outcome of Schedule::validate(). `ok()` is true iff no violations.
struct ValidationResult {
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
  std::string str() const;
};

class Schedule {
 public:
  /// An empty (fully unassigned) schedule for `inst`. The instance must
  /// outlive the schedule.
  explicit Schedule(const Instance& inst);

  /// Owning variant: the schedule keeps the instance alive. Used by online
  /// engines and adversaries that build the instance as they go.
  explicit Schedule(std::shared_ptr<const Instance> inst);

  const Instance& instance() const { return *inst_; }

  void assign(int i, int machine, double start);
  bool assigned(int i) const;
  int machine(int i) const;
  double start(int i) const;
  double completion(int i) const;
  /// Flow time F_i = C_i - r_i.
  double flow(int i) const;
  /// Weighted flow time w_i * F_i (Rational-exact when representable).
  double weighted_flow(int i) const;

  /// Fmax over assigned tasks (0 when none assigned).
  double max_flow() const;
  /// Fmax over the first `count` tasks (the paper's Fmax,i prefix).
  double max_flow_prefix(int count) const;
  double mean_flow() const;
  /// Weighted Fmax^w = max_i w_i * F_i over assigned tasks (0 when none).
  double max_weighted_flow() const;
  /// Weighted total flow sum_i w_i * F_i (Rational-exact accumulation when
  /// every term is dyadic-representable, double fallback otherwise).
  double total_weighted_flow() const;
  /// Stretch of task i: F_i / p_i (Bender et al.'s slowdown metric; 1 means
  /// the task never waited).
  double stretch(int i) const;
  double max_stretch() const;
  /// All flow times of assigned tasks, in task order.
  std::vector<double> flows() const;
  /// Completion time of the last task, 0 when none assigned.
  double makespan() const;

  /// Checks: every task assigned, machine eligible, start >= release, and
  /// no two tasks overlap on a machine (touching intervals allowed).
  ValidationResult validate() const;

  /// ASCII Gantt chart (integer time grid; intended for unit-task
  /// instances such as the adversary constructions of Figures 3 and 6).
  /// Each cell shows the task id occupying that machine in [t, t+1).
  std::string gantt(double t_end = -1) const;

 private:
  std::shared_ptr<const Instance> owner_;  ///< Null for the non-owning ctor.
  const Instance* inst_;
  std::vector<Assignment> asg_;
};

}  // namespace flowsched
