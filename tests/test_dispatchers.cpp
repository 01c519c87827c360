#include "sched/dispatchers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sched/engine.hpp"
#include "support/checks.hpp"
#include "workload/generator.hpp"

namespace flowsched {
namespace {

// Small fixed instance: m=3, tasks arriving with restrictions.
Instance restricted_instance() {
  std::vector<Task> tasks{
      {.release = 0, .proc = 2, .eligible = ProcSet({0, 1})},
      {.release = 0, .proc = 1, .eligible = ProcSet({0, 1})},
      {.release = 0, .proc = 1, .eligible = ProcSet({1, 2})},
      {.release = 1, .proc = 1, .eligible = ProcSet({0, 1})},
  };
  return Instance(3, std::move(tasks));
}

TEST(EftDispatcher, SchedulesEarliestFinishMachine) {
  const auto inst = restricted_instance();
  EftDispatcher eft(TieBreakKind::kMin);
  const auto sched = run_dispatcher(inst, eft);
  EXPECT_TRUE(sched.validate().ok()) << sched.validate().str();
  // T0 -> M0 (tie, Min). T1 -> M1 (earliest finish 0). T2 -> M2 (M1 busy
  // until 1, M2 free). T3 at r=1: M0 busy until 2, M1 free at 1 -> M1.
  EXPECT_EQ(sched.machine(0), 0);
  EXPECT_EQ(sched.machine(1), 1);
  EXPECT_EQ(sched.machine(2), 2);
  EXPECT_EQ(sched.machine(3), 1);
  EXPECT_DOUBLE_EQ(sched.start(3), 1.0);
}

TEST(EftDispatcher, MaxTieBreakPrefersHighIndex) {
  const auto inst = restricted_instance();
  EftDispatcher eft(TieBreakKind::kMax);
  const auto sched = run_dispatcher(inst, eft);
  EXPECT_EQ(sched.machine(0), 1);  // tie between M0, M1 broken upward
  EXPECT_TRUE(sched.validate().ok());
}

TEST(EftDispatcher, StartsAtReleaseWhenMachinesIdle) {
  const auto inst = Instance::unrestricted(2, {{5.0, 1.0}});
  EftDispatcher eft(TieBreakKind::kMin);
  const auto sched = run_dispatcher(inst, eft);
  EXPECT_DOUBLE_EQ(sched.start(0), 5.0);
  EXPECT_DOUBLE_EQ(sched.flow(0), 1.0);
}

TEST(EftDispatcher, RespectsProcessingSets) {
  Rng rng(5);
  RandomInstanceOptions opts;
  opts.m = 5;
  opts.n = 200;
  opts.sets = RandomSets::kArbitrary;
  const auto inst = random_instance(opts, rng);
  EftDispatcher eft(TieBreakKind::kMin);
  const auto sched = run_dispatcher(inst, eft);
  EXPECT_TRUE(sched.validate().ok()) << sched.validate().str();
}

TEST(EftDispatcher, NameIncludesTieBreak) {
  EXPECT_EQ(EftDispatcher(TieBreakKind::kMin).name(), "EFT-Min");
  EXPECT_EQ(EftDispatcher(TieBreakKind::kMax).name(), "EFT-Max");
  EXPECT_EQ(make_eft_rand(1)->name(), "EFT-Rand");
}

// The two-pass, candidate-list EFT the early-exit scan replaced: Eq. (2)'s
// t'min over all of M_i, then U'_i, then the tie-break.
int two_pass_eft(TieBreakKind kind, const Task& t, const MachineState& state) {
  double min_completion = std::numeric_limits<double>::infinity();
  for (int j : t.eligible.machines()) {
    min_completion = std::min(min_completion, state.completion[static_cast<std::size_t>(j)]);
  }
  const double t_min = std::max(t.release, min_completion);
  std::vector<int> candidates;
  for (int j : t.eligible.machines()) {
    if (state.completion[static_cast<std::size_t>(j)] <= t_min + 1e-12) {
      candidates.push_back(j);
    }
  }
  return TieBreak(kind).choose(candidates);
}

// Frontiers drawn around the release instant so every branch of the scan
// is hit: idle, exactly r, inside the tie window (r, r + eps], just past
// it (where only the full min decides), busy, ties among busy machines,
// and +inf. One state in four has every machine busy.
std::vector<double> random_frontiers(int m, double r, Rng& rng) {
  const bool all_busy = rng.uniform_int(0, 3) == 0;
  std::vector<double> c(static_cast<std::size_t>(m));
  for (double& x : c) {
    switch (rng.uniform_int(all_busy ? 2 : 0, 7)) {
      case 0: x = r - static_cast<double>(rng.uniform_int(1, 16)) / 8.0; break;
      case 1: x = r; break;
      case 2: x = r + 0.5e-12; break;
      case 3: x = std::nextafter(r, std::numeric_limits<double>::infinity()); break;
      case 4: x = r + 1.5e-12; break;
      case 5: x = r + static_cast<double>(rng.uniform_int(1, 4)) / 8.0; break;
      case 6: x = r + 0.25 + 0.5e-12; break;
      default: x = std::numeric_limits<double>::infinity(); break;
    }
  }
  return c;
}

ProcSet random_set(int m, Rng& rng) {
  const int k = static_cast<int>(rng.uniform_int(1, m));
  switch (rng.uniform_int(0, 2)) {
    case 0:  // ring interval, wrapped whenever start + k > m
      return ProcSet::ring_interval(static_cast<int>(rng.uniform_int(0, m - 1)),
                                    k, m);
    case 1:
      return ProcSet::interval(0, k - 1);
    default: {
      std::vector<int> members;
      for (int j = 0; j < m; ++j) {
        if (rng.bernoulli(0.5)) members.push_back(j);
      }
      if (members.empty()) members.push_back(static_cast<int>(rng.uniform_int(0, m - 1)));
      return ProcSet(std::move(members));
    }
  }
}

TEST(EftDispatcher, EarlyExitMatchesTwoPassReference) {
  Rng rng(20);
  int wrapped = 0, all_busy = 0, early = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(1, 24));
    Task t;
    t.release = static_cast<double>(rng.uniform_int(0, 512)) / 8.0;
    t.eligible = random_set(m, rng);
    const std::vector<double> completion = random_frontiers(m, t.release, rng);
    const std::vector<double> load(static_cast<std::size_t>(m), 0.0);
    const std::vector<int> count(static_cast<std::size_t>(m), 0);
    const MachineState state{completion, load, count, count, trial};
    if (t.eligible.is_interval(m) && !t.eligible.is_contiguous()) ++wrapped;
    bool idle = false;
    for (int j : t.eligible.machines()) {
      idle = idle || completion[static_cast<std::size_t>(j)] <= t.release;
    }
    ++(idle ? early : all_busy);
    for (TieBreakKind kind : {TieBreakKind::kMin, TieBreakKind::kMax}) {
      EftDispatcher eft(kind);
      eft.reset(m);
      ASSERT_EQ(eft.dispatch(t, state), two_pass_eft(kind, t, state))
          << to_string(kind) << " trial " << trial << " set " << t.eligible.str()
          << " r=" << t.release;
    }
  }
  // The generator really reaches every regime.
  EXPECT_GT(wrapped, 500);
  EXPECT_GT(all_busy, 3000);
  EXPECT_GT(early, 3000);
}

TEST(EftDispatcher, EmptySetThrows) {
  const std::vector<double> c{0.0};
  const std::vector<int> q{0};
  const MachineState state{c, c, q, q};
  Task t;
  for (TieBreakKind kind : {TieBreakKind::kMin, TieBreakKind::kMax}) {
    EftDispatcher eft(kind);
    EXPECT_THROW(eft.dispatch(t, state), std::invalid_argument);
  }
}

TEST(RandomEligibleDispatcher, ProducesValidSchedules) {
  Rng rng(9);
  RandomInstanceOptions opts;
  opts.m = 4;
  opts.n = 150;
  opts.sets = RandomSets::kIntervals;
  const auto inst = random_instance(opts, rng);
  RandomEligibleDispatcher d(77);
  const auto sched = run_dispatcher(inst, d);
  EXPECT_TRUE(sched.validate().ok()) << sched.validate().str();
}

TEST(RandomEligibleDispatcher, ResetReproducesRun) {
  const auto inst = restricted_instance();
  RandomEligibleDispatcher d(42);
  const auto s1 = run_dispatcher(inst, d);
  const auto s2 = run_dispatcher(inst, d);  // run_dispatcher resets
  for (int i = 0; i < inst.n(); ++i) {
    EXPECT_EQ(s1.machine(i), s2.machine(i));
    EXPECT_DOUBLE_EQ(s1.start(i), s2.start(i));
  }
}

TEST(LeastLoadedDispatcher, BalancesTotalWork) {
  // 4 equal tasks, 2 machines, all released at 0: loads must split 2/2.
  const auto inst = Instance::unrestricted(2, {{0, 1}, {0, 1}, {0, 1}, {0, 1}});
  LeastLoadedDispatcher d(TieBreakKind::kMin);
  const auto sched = run_dispatcher(inst, d);
  const auto loads = machine_loads(sched);
  EXPECT_DOUBLE_EQ(loads[0], 2.0);
  EXPECT_DOUBLE_EQ(loads[1], 2.0);
}

TEST(JsqDispatcher, PrefersShortQueues) {
  // Three tasks at time 0 on 2 machines: queue counts 1/1 after two tasks,
  // third goes to the Min machine again; all must be valid.
  const auto inst = Instance::unrestricted(2, {{0, 5}, {0, 5}, {0, 5}});
  JsqDispatcher d(TieBreakKind::kMin);
  const auto sched = run_dispatcher(inst, d);
  EXPECT_TRUE(sched.validate().ok());
  EXPECT_EQ(sched.machine(0), 0);
  EXPECT_EQ(sched.machine(1), 1);  // queue on M0 is longer now
}

TEST(JsqDispatcher, QueueDrainsOverTime) {
  // Second task released after the first completes: both see empty queues.
  const auto inst = Instance::unrestricted(2, {{0, 1}, {5, 1}});
  JsqDispatcher d(TieBreakKind::kMin);
  const auto sched = run_dispatcher(inst, d);
  EXPECT_EQ(sched.machine(0), 0);
  EXPECT_EQ(sched.machine(1), 0);  // ties on empty queues, Min
}

TEST(RoundRobinDispatcher, CyclesThroughEachSet) {
  std::vector<Task> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back({.release = static_cast<double>(i),
                     .proc = 0.5,
                     .eligible = ProcSet({0, 1})});
  }
  const Instance inst(3, std::move(tasks));
  RoundRobinDispatcher d;
  const auto sched = run_dispatcher(inst, d);
  EXPECT_EQ(sched.machine(0), 0);
  EXPECT_EQ(sched.machine(1), 1);
  EXPECT_EQ(sched.machine(2), 0);
  EXPECT_EQ(sched.machine(3), 1);
}

TEST(PowerOfDChoices, UsesWholeSetWhenSmall) {
  // |M_i| = 2 <= d = 2: behaves exactly like EFT on the set.
  std::vector<Task> tasks{
      {.release = 0, .proc = 3, .eligible = ProcSet({0, 1})},
      {.release = 0, .proc = 1, .eligible = ProcSet({0, 1})},
  };
  const Instance inst(3, std::move(tasks));
  PowerOfDChoicesDispatcher d2(2, 1);
  const auto sched = run_dispatcher(inst, d2);
  EXPECT_NE(sched.machine(0), sched.machine(1));  // spreads over both
  EXPECT_TRUE(sched.validate().ok());
}

TEST(PowerOfDChoices, ProbesAreWithinEligibleSet) {
  Rng rng(21);
  RandomInstanceOptions opts;
  opts.m = 8;
  opts.n = 300;
  opts.sets = RandomSets::kArbitrary;
  const auto inst = random_instance(opts, rng);
  PowerOfDChoicesDispatcher d2(2, 5);
  const auto sched = run_dispatcher(inst, d2);
  EXPECT_TRUE(sched.validate().ok()) << sched.validate().str();
}

TEST(PowerOfDChoices, MoreChoicesNeverHurtOnAverage) {
  // d = 2 should already be close to full EFT and far better than d = 1
  // (random) at high load — the power-of-two-choices effect.
  Rng rng(31);
  RandomInstanceOptions opts;
  opts.m = 10;
  opts.n = 3000;
  opts.unit_tasks = true;
  opts.max_release = 330.0;  // ~90% load
  const auto inst = random_instance(opts, rng);
  auto mean_flow_with = [&inst](int d) {
    PowerOfDChoicesDispatcher dispatcher(d, 7);
    return run_dispatcher(inst, dispatcher).mean_flow();
  };
  const double one = mean_flow_with(1);
  const double two = mean_flow_with(2);
  EXPECT_LT(two, one);
}

TEST(PowerOfDChoices, RejectsBadD) {
  EXPECT_THROW(PowerOfDChoicesDispatcher(0, 1), std::invalid_argument);
}

TEST(RoundRobinDispatcher, IndependentCursorsPerSet) {
  std::vector<Task> tasks{
      {.release = 0, .proc = 1, .eligible = ProcSet({0, 1})},
      {.release = 0, .proc = 1, .eligible = ProcSet({2, 3})},
      {.release = 0, .proc = 1, .eligible = ProcSet({0, 1})},
      {.release = 0, .proc = 1, .eligible = ProcSet({2, 3})},
  };
  const Instance inst(4, std::move(tasks));
  RoundRobinDispatcher d;
  const auto sched = run_dispatcher(inst, d);
  EXPECT_EQ(sched.machine(0), 0);
  EXPECT_EQ(sched.machine(1), 2);
  EXPECT_EQ(sched.machine(2), 1);
  EXPECT_EQ(sched.machine(3), 3);
}

}  // namespace
}  // namespace flowsched
