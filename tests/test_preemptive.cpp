#include "sched/preemptive.hpp"

#include <gtest/gtest.h>

#include "offline/preemptive_optimal.hpp"
#include "sched/fifo.hpp"
#include "support/checks.hpp"
#include "workload/generator.hpp"

namespace flowsched {
namespace {

TEST(Preemptive, SingleTaskRunsToCompletion) {
  const auto inst = Instance::unrestricted(2, {{1.0, 3.0}});
  const auto log = preemptive_schedule(inst, PreemptivePriority::kFifo);
  EXPECT_TRUE(validate_execution(inst, log).empty());
  EXPECT_DOUBLE_EQ(log.completion(0), 4.0);
  EXPECT_DOUBLE_EQ(log.flow(0), 3.0);
}

TEST(Preemptive, FifoPreemptsNewerTasks) {
  // Long task at 0 on one machine; two short high-priority arrivals later
  // must NOT preempt it under FIFO (older release wins).
  const auto inst = Instance::unrestricted(1, {{0.0, 5.0}, {1.0, 1.0}});
  const auto log = preemptive_schedule(inst, PreemptivePriority::kFifo);
  EXPECT_TRUE(validate_execution(inst, log).empty());
  EXPECT_DOUBLE_EQ(log.completion(0), 5.0);
  EXPECT_DOUBLE_EQ(log.completion(1), 6.0);
}

TEST(Preemptive, ShortestFirstPreempts) {
  // Under shortest-first the short arrival takes the machine immediately.
  const auto inst = Instance::unrestricted(1, {{0.0, 5.0}, {1.0, 1.0}});
  const auto log = preemptive_schedule(inst, PreemptivePriority::kShortestFirst);
  EXPECT_TRUE(validate_execution(inst, log).empty());
  EXPECT_DOUBLE_EQ(log.completion(1), 2.0);  // preempts at t=1
  EXPECT_DOUBLE_EQ(log.completion(0), 6.0);  // resumes after
  // The long task has two slices.
  int slices_of_0 = 0;
  for (const auto& s : log.slices()) slices_of_0 += s.task == 0 ? 1 : 0;
  EXPECT_EQ(slices_of_0, 2);
}

TEST(Preemptive, RespectsProcessingSets) {
  std::vector<Task> tasks{
      {.release = 0, .proc = 2, .eligible = ProcSet({0})},
      {.release = 0, .proc = 2, .eligible = ProcSet({0})},
      {.release = 0, .proc = 2, .eligible = ProcSet({1})},
  };
  const Instance inst(2, std::move(tasks));
  const auto log = preemptive_schedule(inst, PreemptivePriority::kFifo);
  EXPECT_TRUE(validate_execution(inst, log).empty());
  EXPECT_DOUBLE_EQ(log.completion(1), 4.0);  // serialized on M0
  EXPECT_DOUBLE_EQ(log.completion(2), 2.0);
}

TEST(Preemptive, MatchesNonPreemptiveFifoWithoutPreemptionPressure) {
  // Unit tasks, spaced releases: preemption never helps, so preemptive
  // FIFO completes everything exactly like non-preemptive FIFO.
  Rng rng(3);
  RandomInstanceOptions opts;
  opts.m = 3;
  opts.n = 30;
  opts.unit_tasks = true;
  opts.integer_releases = true;
  opts.max_release = 20.0;
  const auto inst = random_instance(opts, rng);
  const auto log = preemptive_schedule(inst, PreemptivePriority::kFifo);
  const auto fifo = fifo_schedule(inst);
  for (int i = 0; i < inst.n(); ++i) {
    EXPECT_NEAR(log.completion(i), fifo.completion(i), 1e-9) << "task " << i;
  }
}

TEST(Preemptive, ValidOnRandomRestrictedInstances) {
  Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    RandomInstanceOptions opts;
    opts.m = 4;
    opts.n = 50;
    opts.sets = RandomSets::kArbitrary;
    const auto inst = random_instance(opts, rng);
    for (auto prio : {PreemptivePriority::kFifo, PreemptivePriority::kShortestFirst}) {
      const auto log = preemptive_schedule(inst, prio);
      const auto violations = validate_execution(inst, log);
      EXPECT_TRUE(violations.empty())
          << "trial " << trial << ": " << violations.front();
    }
  }
}

TEST(PreemptiveOptimal, SingleTask) {
  const auto inst = Instance::unrestricted(2, {{0.0, 3.0}});
  EXPECT_NEAR(preemptive_optimal_fmax(inst), 3.0, 1e-6);
}

TEST(PreemptiveOptimal, SplitsAcrossMachines) {
  // 3 tasks of length 2 at t=0 on 2 machines: preemptive OPT = 3 (McNaughton
  // wrap-around), non-preemptive would be 4 on some machine.
  const auto inst = Instance::unrestricted(2, {{0, 2}, {0, 2}, {0, 2}});
  EXPECT_NEAR(preemptive_optimal_fmax(inst), 3.0, 1e-6);
}

TEST(PreemptiveOptimal, PmaxDominatesWhenParallel) {
  const auto inst = Instance::unrestricted(3, {{0, 5}, {0, 1}, {0, 1}});
  EXPECT_NEAR(preemptive_optimal_fmax(inst), 5.0, 1e-6);
}

TEST(PreemptiveOptimal, RestrictionsRaiseTheOptimum) {
  std::vector<Task> tasks{
      {.release = 0, .proc = 2, .eligible = ProcSet({0})},
      {.release = 0, .proc = 2, .eligible = ProcSet({0})},
  };
  const Instance inst(2, std::move(tasks));
  EXPECT_NEAR(preemptive_optimal_fmax(inst), 4.0, 1e-6);
}

TEST(PreemptiveOptimal, NeverExceedsNonPreemptiveUnitOptimum) {
  Rng rng(11);
  RandomInstanceOptions opts;
  opts.m = 3;
  opts.n = 10;
  opts.unit_tasks = true;
  opts.integer_releases = true;
  opts.sets = RandomSets::kIntervals;
  for (int trial = 0; trial < 8; ++trial) {
    const auto inst = random_instance(opts, rng);
    const double pmtn = preemptive_optimal_fmax(inst);
    const double lb = 1.0;  // unit tasks
    EXPECT_GE(pmtn, lb - 1e-6);
    // The preemptive relaxation can only lower the optimum.
    EXPECT_LE(pmtn, static_cast<double>(inst.n()) + 1e-6);
  }
}

TEST(PreemptiveOptimal, LowerBoundsPreemptiveFifo) {
  // Table 1 (preemptive row): FIFO is (3 - 2/m)-competitive with
  // preemption; check against the exact preemptive optimum.
  Rng rng(13);
  for (int trial = 0; trial < 6; ++trial) {
    RandomInstanceOptions opts;
    opts.m = 3;
    opts.n = 20;
    opts.max_release = 8.0;
    const auto inst = random_instance(opts, rng);
    const auto log = preemptive_schedule(inst, PreemptivePriority::kFifo);
    const double opt = preemptive_optimal_fmax(inst);
    ASSERT_GT(opt, 0.0);
    EXPECT_LE(log.max_flow(), (3.0 - 2.0 / 3) * opt + 1e-6)
        << "trial " << trial;
  }
}

TEST(PreemptiveOptimal, FeasibilityMonotoneInF) {
  const auto inst = Instance::unrestricted(2, {{0, 2}, {0, 2}, {0, 2}});
  EXPECT_FALSE(preemptive_fmax_feasible(inst, 2.9));
  EXPECT_TRUE(preemptive_fmax_feasible(inst, 3.0));
  EXPECT_TRUE(preemptive_fmax_feasible(inst, 3.5));
}

TEST(PreemptiveOptimal, EmptyInstance) {
  const Instance inst(2, {});
  EXPECT_DOUBLE_EQ(preemptive_optimal_fmax(inst), 0.0);
}

}  // namespace
}  // namespace flowsched
