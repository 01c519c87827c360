// Small test oracles over the public API of shipped classes: each one
// recomputes, from what a class exposes, a quantity the tests check it by.
// Nothing shipped calls them, so they live with the tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "fault/recovery.hpp"
#include "kvstore/ring.hpp"
#include "model/instance.hpp"
#include "model/procset.hpp"
#include "model/schedule.hpp"
#include "obs/observer.hpp"
#include "sched/preemptive.hpp"
#include "util/rational.hpp"
#include "workload/alias.hpp"

namespace flowsched {

/// Renders r as its nearest double in 17 significant digits, enough to
/// tell any two doubles apart; also what gtest prints for a Rational.
std::ostream& operator<<(std::ostream& os, const Rational& r);

/// Total busy time per machine over the assigned tasks.
std::vector<double> machine_loads(const Schedule& sched);

/// True when all sets have the same cardinality k; returns that k through
/// `k_out` (k_out may be null). An empty family is uniform with k = 0.
bool is_uniform_size_family(std::span<const ProcSet> sets, int* k_out = nullptr);

/// Checks a preemptive schedule: slices within [release, inf), machines
/// eligible, no machine runs two tasks at once, no task runs on two
/// machines at once, and every task receives exactly its processing time.
/// Returns the violations (empty when valid).
std::vector<std::string> validate_execution(const Instance& inst,
                                            const ExecutionLog& log);

/// Machine owning the ring position `point` (its successor token): the
/// first member of the preference list.
int ring_primary_at(const HashRing& ring, std::uint64_t point);

/// Probability that sampler.resolve(u) returns i for u uniform in [0, 1),
/// for a sampler built from n weights, read off resolve itself: column c
/// covers u in [c/n, (c+1)/n) and returns c below a threshold and its alias
/// above it, so a bisection finds each column's split to within an ulp.
double alias_probability(const AliasSampler& sampler, std::size_t n,
                         std::size_t i);

/// Attempts of one task, in attempt order.
std::vector<FaultAttempt> attempts_of(const FaultLog& log, int task);

/// Counts the runs an engine brackets (on_run_end calls). Fanned out next
/// to another sink, it shows that the sink saw every run.
struct RunCounter final : SchedObserver {
  int runs = 0;
  void on_run_begin(const RunInfo&) override {}
  void on_event(const ObsEvent&) override {}
  void on_run_end(double) override { ++runs; }
};

/// Records the setup time each task's kTaskStarted event carries (0 for
/// tasks it has not seen).
class SetupLog final : public SchedObserver {
 public:
  void on_run_begin(const RunInfo&) override {}
  void on_event(const ObsEvent& e) override;
  void on_run_end(double) override {}

  double setup_of(int task) const;

 private:
  std::vector<double> setups_;
};

namespace bounds {

/// Certified upper bound on OPT for the Theorem 10 small-task adversary:
/// 1 + m(m+1)/2 * 2^-20, exact. Requires 2 <= m <= 1024.
Rational theorem10_opt_upper(int m);

}  // namespace bounds
}  // namespace flowsched
