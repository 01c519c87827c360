#include "qsched/related.hpp"

#include <gtest/gtest.h>

#include "sched/engine.hpp"
#include "workload/generator.hpp"

namespace flowsched {
namespace {

TEST(RelatedGreedy, PrefersFastMachine) {
  // Speeds (1, 4): the fast machine finishes a length-4 task in 1 unit.
  const auto inst = Instance::unrestricted(2, {{0.0, 4.0}});
  QGreedyDispatcher greedy;
  const auto run = run_related(inst, {1.0, 4.0}, greedy);
  EXPECT_EQ(run.schedule.machine(0), 1);
  EXPECT_DOUBLE_EQ(run.max_flow, 1.0);
}

TEST(RelatedGreedy, BalancesWhenFastIsBusy) {
  // Two length-4 tasks at t=0 with speeds (1, 4): second task finishes
  // sooner queued on the fast machine (2) than alone on the slow one (4).
  const auto inst = Instance::unrestricted(2, {{0.0, 4.0}, {0.0, 4.0}});
  QGreedyDispatcher greedy;
  const auto run = run_related(inst, {1.0, 4.0}, greedy);
  EXPECT_EQ(run.schedule.machine(0), 1);
  EXPECT_EQ(run.schedule.machine(1), 1);
  EXPECT_DOUBLE_EQ(run.max_flow, 2.0);
}

TEST(RelatedGreedy, UnitSpeedsReduceToEft) {
  Rng rng(5);
  RandomInstanceOptions opts;
  opts.m = 4;
  opts.n = 60;
  opts.sets = RandomSets::kIntervals;
  const auto inst = random_instance(opts, rng);
  QGreedyDispatcher greedy;
  const auto run = run_related(inst, {1.0, 1.0, 1.0, 1.0}, greedy);
  EftDispatcher eft(TieBreakKind::kMin);
  const auto sched = run_dispatcher(inst, eft);
  for (int i = 0; i < inst.n(); ++i) {
    EXPECT_EQ(run.schedule.machine(i), sched.machine(i)) << "task " << i;
    EXPECT_NEAR(run.schedule.start(i), sched.start(i), 1e-9);
  }
}

TEST(RelatedSlowFit, UsesSlowestFeasibleMachine) {
  // First task seeds the estimate at p/s_max = 1.0 (budget 2.0): the slow
  // machine (delay 10) does not fit, the fast one does. A later small task
  // (delay 1 on the slow machine) fits the standing budget, so Slow-Fit
  // sends it to the SLOWEST feasible machine.
  const auto inst = Instance::unrestricted(2, {{0.0, 10.0}, {20.0, 1.0}});
  QSlowFitDispatcher slowfit(2.0);
  const auto run = run_related(inst, {1.0, 10.0}, slowfit);
  EXPECT_EQ(run.schedule.machine(0), 1);  // only the fast machine fits
  EXPECT_EQ(run.schedule.machine(1), 0);  // slow machine now qualifies
}

// The estimate starts at the first task's fastest flow, 1/4, so the budget
// is 2 * 1/4. The second task fits nowhere within it and the estimate
// doubles until the fast machine fits (flow 2.25 within budget 4). Doubling
// past 4.5 would have let the slow machine (flow 8) fit, and Slow-Fit would
// have taken it, since it tries the slowest machine first.
TEST(RelatedSlowFit, EstimateDoublesMonotonically) {
  const auto inst = Instance::unrestricted(2, {{0.0, 1.0}, {0.0, 8.0}});
  QSlowFitDispatcher slowfit(2.0);
  const auto run = run_related(inst, {1.0, 4.0}, slowfit);
  EXPECT_EQ(run.schedule.machine(0), 1);
  EXPECT_EQ(run.schedule.machine(1), 1);
  EXPECT_DOUBLE_EQ(run.flows[1], 2.25);
}

// Slow-Fit's failure mode: a single large task inflates the estimate; the
// following stream of small tasks then "fits" on very slow machines within
// the inflated budget, building deep backlogs the fast machine would have
// absorbed trivially.
Instance slowfit_trap() {
  std::vector<std::pair<double, double>> pairs;
  pairs.emplace_back(0.0, 40.0);  // estimate seeds at 40/4 = 10, budget 20
  for (int i = 0; i < 60; ++i) pairs.emplace_back(50.0 + i, 1.0);
  return Instance::unrestricted(2, std::move(pairs));
}

TEST(RelatedSlowFit, PilesOntoSlowMachines) {
  const std::vector<double> speeds{0.1, 4.0};
  QSlowFitDispatcher slowfit(2.0);
  QGreedyDispatcher greedy;
  const auto sf = run_related(slowfit_trap(), speeds, slowfit);
  const auto gd = run_related(slowfit_trap(), speeds, greedy);
  // Greedy's Fmax is the big task alone (40/4 = 10); Slow-Fit lets the
  // small-task backlog on the 0.1-speed machine grow to ~2x the budget.
  EXPECT_DOUBLE_EQ(gd.max_flow, 10.0);
  EXPECT_GT(sf.max_flow, 1.8 * gd.max_flow);
}

TEST(RelatedDoubleFit, StaysCloseToGreedyOnSlowFitsBadCase) {
  // The greedy safety cap (delay <= 2 * greedy option) prevents Double-Fit
  // from drowning the slow machine the way Slow-Fit does.
  const std::vector<double> speeds{0.1, 4.0};
  QDoubleFitDispatcher doublefit;
  QGreedyDispatcher greedy;
  QSlowFitDispatcher slowfit(2.0);
  const auto df = run_related(slowfit_trap(), speeds, doublefit);
  const auto gd = run_related(slowfit_trap(), speeds, greedy);
  const auto sf = run_related(slowfit_trap(), speeds, slowfit);
  EXPECT_LE(df.max_flow, 1.5 * gd.max_flow);
  EXPECT_LT(df.max_flow, sf.max_flow);
}

TEST(RelatedDispatchers, AllRespectProcessingSets) {
  Rng rng(9);
  RandomInstanceOptions opts;
  opts.m = 5;
  opts.n = 80;
  opts.sets = RandomSets::kArbitrary;
  const auto inst = random_instance(opts, rng);
  const std::vector<double> speeds{0.5, 1.0, 1.5, 2.0, 3.0};
  QGreedyDispatcher greedy;
  QSlowFitDispatcher slowfit;
  QDoubleFitDispatcher doublefit;
  for (RelatedDispatcher* d :
       {static_cast<RelatedDispatcher*>(&greedy),
        static_cast<RelatedDispatcher*>(&slowfit),
        static_cast<RelatedDispatcher*>(&doublefit)}) {
    const auto run = run_related(inst, speeds, *d);
    for (int i = 0; i < inst.n(); ++i) {
      EXPECT_TRUE(inst.task(i).eligible.contains(run.schedule.machine(i)))
          << d->name() << " task " << i;
      EXPECT_GE(run.schedule.start(i), inst.task(i).release - 1e-9);
    }
  }
}

TEST(RelatedDispatchers, FlowsAboveCertifiedLowerBound) {
  Rng rng(13);
  RandomInstanceOptions opts;
  opts.m = 3;
  opts.n = 40;
  const auto inst = random_instance(opts, rng);
  const std::vector<double> speeds{0.5, 1.0, 2.0};
  const double lb = related_opt_lower_bound(inst, speeds);
  ASSERT_GT(lb, 0.0);
  QGreedyDispatcher greedy;
  QSlowFitDispatcher slowfit;
  QDoubleFitDispatcher doublefit;
  for (RelatedDispatcher* d :
       {static_cast<RelatedDispatcher*>(&greedy),
        static_cast<RelatedDispatcher*>(&slowfit),
        static_cast<RelatedDispatcher*>(&doublefit)}) {
    const auto run = run_related(inst, speeds, *d);
    EXPECT_GE(run.max_flow, lb - 1e-9) << d->name();
  }
}

TEST(Related, LowerBoundSingleFastMachine) {
  // Work 10 released at once on total speed 2: F >= 5; pmax/s_max = 4/2.
  const auto inst = Instance::unrestricted(2, {{0, 4}, {0, 4}, {0, 2}});
  EXPECT_DOUBLE_EQ(related_opt_lower_bound(inst, {1.0, 1.0}), 5.0);
}

TEST(Related, RejectsBadSpeeds) {
  const auto inst = Instance::unrestricted(2, {{0, 1}});
  QGreedyDispatcher greedy;
  EXPECT_THROW(run_related(inst, {1.0}, greedy), std::invalid_argument);
  EXPECT_THROW(run_related(inst, {1.0, 0.0}, greedy), std::invalid_argument);
}

}  // namespace
}  // namespace flowsched
