#include "offline/unit_optimal.hpp"

#include <gtest/gtest.h>

#include "offline/bruteforce.hpp"
#include "sched/engine.hpp"
#include "sched/fifo.hpp"
#include "workload/generator.hpp"

namespace flowsched {
namespace {

Instance unit_instance(int m, std::vector<std::pair<double, ProcSet>> specs) {
  std::vector<Task> tasks;
  for (auto& [r, set] : specs) {
    tasks.push_back({.release = r, .proc = 1.0, .eligible = std::move(set)});
  }
  return Instance(m, std::move(tasks));
}

TEST(UnitOptimal, SingleTask) {
  const auto inst = unit_instance(2, {{0.0, ProcSet({0})}});
  EXPECT_EQ(unit_optimal_fmax(inst), 1);
}

TEST(UnitOptimal, ContentionOnOneMachine) {
  // 3 tasks at time 0, all restricted to M0: flows 1, 2, 3.
  const auto inst = unit_instance(
      2, {{0.0, ProcSet({0})}, {0.0, ProcSet({0})}, {0.0, ProcSet({0})}});
  EXPECT_EQ(unit_optimal_fmax(inst), 3);
}

TEST(UnitOptimal, RestrictionForcesWaiting) {
  // Two tasks on {M0}, one on {M0, M1}: OPT puts the flexible one on M1.
  const auto inst = unit_instance(
      2, {{0.0, ProcSet({0})}, {0.0, ProcSet({0})}, {0.0, ProcSet({0, 1})}});
  EXPECT_EQ(unit_optimal_fmax(inst), 2);
}

TEST(UnitOptimal, ScheduleRealizesOptimum) {
  Rng rng(3);
  RandomInstanceOptions opts;
  opts.m = 3;
  opts.n = 12;
  opts.unit_tasks = true;
  opts.integer_releases = true;
  opts.max_release = 6.0;
  opts.sets = RandomSets::kArbitrary;
  for (int trial = 0; trial < 10; ++trial) {
    const auto inst = random_instance(opts, rng);
    const int opt = unit_optimal_fmax(inst);
    Schedule sched(inst);
    ASSERT_TRUE(unit_fmax_feasible(inst, opt, &sched));
    EXPECT_TRUE(sched.validate().ok()) << sched.validate().str();
    EXPECT_NEAR(sched.max_flow(), opt, 1e-9);
  }
}

TEST(UnitOptimal, MatchesBruteForceOnRandomInstances) {
  Rng rng(11);
  RandomInstanceOptions opts;
  opts.m = 3;
  opts.n = 9;
  opts.unit_tasks = true;
  opts.integer_releases = true;
  opts.max_release = 4.0;
  opts.sets = RandomSets::kIntervals;
  for (int trial = 0; trial < 15; ++trial) {
    const auto inst = random_instance(opts, rng);
    EXPECT_NEAR(brute_force_opt_fmax(inst), unit_optimal_fmax(inst), 1e-9);
  }
}

TEST(UnitOptimal, FeasibilityIsMonotoneInF) {
  Rng rng(17);
  RandomInstanceOptions opts;
  opts.m = 3;
  opts.n = 10;
  opts.unit_tasks = true;
  opts.integer_releases = true;
  opts.sets = RandomSets::kArbitrary;
  const auto inst = random_instance(opts, rng);
  const int opt = unit_optimal_fmax(inst);
  EXPECT_FALSE(unit_fmax_feasible(inst, opt - 1));
  EXPECT_TRUE(unit_fmax_feasible(inst, opt));
  EXPECT_TRUE(unit_fmax_feasible(inst, opt + 1));
}

TEST(UnitOptimal, RejectsNonUnitOrFractionalReleases) {
  const auto bad_proc = Instance::unrestricted(2, {{0.0, 2.0}});
  EXPECT_THROW(unit_optimal_fmax(bad_proc), std::invalid_argument);
  const auto bad_release = Instance::unrestricted(2, {{0.5, 1.0}});
  EXPECT_THROW(unit_optimal_fmax(bad_release), std::invalid_argument);
}

// Theorem 2: FIFO solves P|online-r_i, p_i = p|Fmax to optimality. With
// p = 1 and integer releases we can check against the exact optimum.
TEST(UnitOptimal, Theorem2FifoOptimalForUnitTasks) {
  Rng rng(23);
  RandomInstanceOptions opts;
  opts.m = 3;
  opts.n = 14;
  opts.unit_tasks = true;
  opts.integer_releases = true;
  opts.max_release = 5.0;
  opts.sets = RandomSets::kUnrestricted;
  for (int trial = 0; trial < 10; ++trial) {
    const auto inst = random_instance(opts, rng);
    const auto fifo = fifo_schedule(inst);
    EXPECT_NEAR(fifo.max_flow(), unit_optimal_fmax(inst), 1e-9)
        << "trial " << trial;
  }
}

// EFT (== FIFO) is likewise optimal on unit tasks without restrictions, but
// NOT with restrictions: exhibit an instance where EFT-Min is strictly
// suboptimal.
TEST(UnitOptimal, EftSuboptimalUnderRestrictions) {
  // At t=0: one task on {M0,M1} (EFT-Min -> M0), then two tasks on {M0}.
  // EFT ends with Fmax = 3; OPT = 2 (flexible task to M1).
  const auto inst = unit_instance(
      2, {{0.0, ProcSet({0, 1})}, {0.0, ProcSet({0})}, {0.0, ProcSet({0})}});
  EftDispatcher eft(TieBreakKind::kMin);
  const auto sched = run_dispatcher(inst, eft);
  EXPECT_DOUBLE_EQ(sched.max_flow(), 3.0);
  EXPECT_EQ(unit_optimal_fmax(inst), 2);
}

}  // namespace
}  // namespace flowsched
