// Cross-cutting edge cases that don't belong to a single module suite.
#include <gtest/gtest.h>

#include "lp/simplex.hpp"
#include "sched/engine.hpp"
#include "sched/preemptive.hpp"
#include "support/checks.hpp"
#include "workload/generator.hpp"

namespace flowsched {
namespace {

TEST(EdgeCases, BurstOfSimultaneousReleasesSpreadsAcrossMachines) {
  // m tasks at the same instant: EFT must put exactly one on each machine.
  const int m = 8;
  EftDispatcher eft(TieBreakKind::kMin);
  OnlineEngine engine(m, eft);
  for (int i = 0; i < m; ++i) {
    engine.release({.release = 0.0, .proc = 1.0, .eligible = {}});
  }
  for (int j = 0; j < m; ++j) EXPECT_EQ(engine.count_of(j), 1) << "machine " << j;
}

TEST(EdgeCases, QueueDepthsVisibleToDispatchers) {
  // JSQ sees the queue drain: after the backlog clears, it reuses M0.
  JsqDispatcher jsq(TieBreakKind::kMin);
  OnlineEngine engine(2, jsq);
  engine.release({.release = 0.0, .proc = 4.0, .eligible = {}});  // M0 (tie)
  engine.release({.release = 0.0, .proc = 1.0, .eligible = {}});  // M1
  // At t=2: M0 still busy (queued 1), M1 idle (queued 0) -> M1.
  const auto a2 = engine.release({.release = 2.0, .proc = 1.0, .eligible = {}});
  EXPECT_EQ(a2.machine, 1);
  // At t=10 everything drained: tie on queue depth 0 -> Min -> M0.
  const auto a3 = engine.release({.release = 10.0, .proc = 1.0, .eligible = {}});
  EXPECT_EQ(a3.machine, 0);
}

TEST(EdgeCases, ZeroLengthTieWindowIsExact) {
  // Two machines finishing 1e-9 apart are NOT tied (above the 1e-12
  // tolerance); EFT must pick the strictly earlier one even under Max.
  EftDispatcher eft(TieBreakKind::kMax);
  OnlineEngine engine(2, eft);
  engine.release({.release = 0.0, .proc = 1.0, .eligible = ProcSet({0})});
  engine.release({.release = 0.0, .proc = 1.0 + 1e-9, .eligible = ProcSet({1})});
  const auto a = engine.release({.release = 0.0, .proc = 1.0, .eligible = {}});
  EXPECT_EQ(a.machine, 0);
}

TEST(EdgeCases, SingleMachineEverythingSerializes) {
  Rng rng(2);
  RandomInstanceOptions opts;
  opts.m = 1;
  opts.n = 50;
  const auto inst = random_instance(opts, rng);
  EftDispatcher eft(TieBreakKind::kMin);
  const auto sched = run_dispatcher(inst, eft);
  EXPECT_TRUE(sched.validate().ok());
  const auto loads = machine_loads(sched);
  EXPECT_NEAR(loads[0], inst.total_work(), 1e-9);
}

TEST(EdgeCases, SimplexIterationLimitReported) {
  // A tiny iteration budget must surface kIterLimit, not hang or lie.
  LpProblemD lp;
  const int x = lp.add_var(1.0);
  const int y = lp.add_var(1.0);
  lp.add_constraint({{x, 1.0}, {y, 2.0}}, Relation::kLe, 4.0);
  lp.add_constraint({{x, 2.0}, {y, 1.0}}, Relation::kLe, 4.0);
  const auto sol = lp.solve(/*max_iters=*/1);
  EXPECT_EQ(sol.status, LpStatus::kIterLimit);
}

TEST(EdgeCases, EngineHandlesManyEqualReleaseRestrictedTasks) {
  // A storm of equal-release tasks all restricted to one machine: the
  // engine must chain them back-to-back with linearly growing flows.
  EftDispatcher eft(TieBreakKind::kMin);
  OnlineEngine engine(4, eft);
  for (int i = 0; i < 50; ++i) {
    const auto a = engine.release({.release = 0.0, .proc = 1.0, .eligible = ProcSet({2})});
    EXPECT_EQ(a.machine, 2);
    EXPECT_DOUBLE_EQ(a.start, static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(engine.completions()[2], 50.0);
}

TEST(EdgeCases, FractionalProcessingTimesStayConsistent) {
  // Powers of two stay exact through long accumulation.
  EftDispatcher eft(TieBreakKind::kMin);
  OnlineEngine engine(1, eft);
  for (int i = 0; i < 1024; ++i) {
    engine.release({.release = 0.0, .proc = 0x1.0p-4, .eligible = {}});
  }
  EXPECT_DOUBLE_EQ(engine.completions()[0], 64.0);
}

TEST(EdgeCases, ScheduleGanttHandlesFractionalDurations) {
  const auto inst = Instance::unrestricted(2, {{0.0, 0.5}, {0.25, 1.5}});
  EftDispatcher eft(TieBreakKind::kMin);
  const auto sched = run_dispatcher(inst, eft);
  EXPECT_FALSE(sched.gantt().empty());
}

}  // namespace
}  // namespace flowsched
