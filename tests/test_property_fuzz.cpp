// Property / fuzz suite: every dispatcher, on every processing-set shape,
// must uphold the model invariants on randomized instances. The grid is a
// parameterized sweep (structure x machine count x policy); each cell runs
// several seeds. Every run streams through the InvariantAuditor
// (src/check/audit.hpp), so the event-level invariants are checked live on
// the same instances, not just the end-state Schedule::validate() ones.
#include <gtest/gtest.h>

#include <memory>

#include "check/audit.hpp"
#include "offline/unit_optimal.hpp"
#include "sched/engine.hpp"
#include "sched/fifo.hpp"
#include "support/checks.hpp"
#include "workload/generator.hpp"

namespace flowsched {
namespace {

enum class Policy { kEftMin, kEftMax, kEftRand, kRandom, kJsq, kLeastLoaded, kRr };

std::unique_ptr<Dispatcher> make_policy(Policy policy, std::uint64_t seed) {
  switch (policy) {
    case Policy::kEftMin:
      return make_eft_min();
    case Policy::kEftMax:
      return make_eft_max();
    case Policy::kEftRand:
      return make_eft_rand(seed);
    case Policy::kRandom:
      return std::make_unique<RandomEligibleDispatcher>(seed);
    case Policy::kJsq:
      return std::make_unique<JsqDispatcher>(TieBreakKind::kMin);
    case Policy::kLeastLoaded:
      return std::make_unique<LeastLoadedDispatcher>(TieBreakKind::kMin);
    case Policy::kRr:
      return std::make_unique<RoundRobinDispatcher>();
  }
  return nullptr;
}

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::kEftMin:
      return "EftMin";
    case Policy::kEftMax:
      return "EftMax";
    case Policy::kEftRand:
      return "EftRand";
    case Policy::kRandom:
      return "Random";
    case Policy::kJsq:
      return "Jsq";
    case Policy::kLeastLoaded:
      return "LeastLoaded";
    case Policy::kRr:
      return "RoundRobin";
  }
  return "?";
}

struct FuzzCase {
  Policy policy;
  RandomSets sets;
  int m;

  friend std::ostream& operator<<(std::ostream& os, const FuzzCase& c) {
    return os << policy_name(c.policy) << "_sets" << static_cast<int>(c.sets)
              << "_m" << c.m;
  }
};

class DispatcherFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(DispatcherFuzz, InvariantsHoldOnRandomInstances) {
  const auto param = GetParam();
  Rng rng(0xF00D + static_cast<std::uint64_t>(param.m) * 131 +
          static_cast<std::uint64_t>(param.sets) * 17 +
          static_cast<std::uint64_t>(param.policy));
  for (int trial = 0; trial < 5; ++trial) {
    RandomInstanceOptions opts;
    opts.m = param.m;
    opts.n = 120;
    opts.max_release = 40.0;
    opts.sets = param.sets;
    const auto inst = random_instance(opts, rng);
    auto dispatcher = make_policy(param.policy, 99 + trial);
    InvariantAuditor auditor;
    const auto sched = run_dispatcher(inst, *dispatcher, auditor);

    // 1. Full feasibility (assignment, eligibility, releases, no overlap).
    const auto validation = sched.validate();
    ASSERT_TRUE(validation.ok())
        << policy_name(param.policy) << ": " << validation.violations.front();

    // 1b. The live event stream upholds the auditor's invariant catalog
    // (protocol, eligibility, exact accounting, busy/idle bookkeeping, and
    // the behavioural checks the policy's name promises).
    ASSERT_TRUE(auditor.ok())
        << policy_name(param.policy) << ": " << auditor.report();

    // 2. Flow of every task at least its processing time.
    for (int i = 0; i < inst.n(); ++i) {
      EXPECT_GE(sched.flow(i), inst.task(i).proc - 1e-9);
      EXPECT_GE(sched.stretch(i), 1.0 - 1e-9);
    }

    // 3. Work conservation: machine loads sum to the total work.
    double load_total = 0;
    for (double l : machine_loads(sched)) load_total += l;
    EXPECT_NEAR(load_total, inst.total_work(), 1e-6);

    // 4. Makespan sanity: at least total_work / m after the first release.
    EXPECT_GE(sched.makespan() + 1e-9,
              inst.task(0).release + inst.total_work() / inst.m() / 4);
  }
}

TEST_P(DispatcherFuzz, DeterministicForFixedSeed) {
  const auto param = GetParam();
  Rng rng(0xBEEF + static_cast<std::uint64_t>(param.m));
  RandomInstanceOptions opts;
  opts.m = param.m;
  opts.n = 60;
  opts.sets = param.sets;
  const auto inst = random_instance(opts, rng);
  auto d1 = make_policy(param.policy, 4242);
  auto d2 = make_policy(param.policy, 4242);
  const auto s1 = run_dispatcher(inst, *d1);
  const auto s2 = run_dispatcher(inst, *d2);
  for (int i = 0; i < inst.n(); ++i) {
    EXPECT_EQ(s1.machine(i), s2.machine(i)) << "task " << i;
    EXPECT_DOUBLE_EQ(s1.start(i), s2.start(i)) << "task " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DispatcherFuzz,
    ::testing::Values(
        FuzzCase{Policy::kEftMin, RandomSets::kUnrestricted, 3},
        FuzzCase{Policy::kEftMin, RandomSets::kIntervals, 5},
        FuzzCase{Policy::kEftMin, RandomSets::kRingIntervals, 6},
        FuzzCase{Policy::kEftMin, RandomSets::kArbitrary, 4},
        FuzzCase{Policy::kEftMax, RandomSets::kIntervals, 5},
        FuzzCase{Policy::kEftMax, RandomSets::kArbitrary, 6},
        FuzzCase{Policy::kEftRand, RandomSets::kRingIntervals, 5},
        FuzzCase{Policy::kEftRand, RandomSets::kArbitrary, 4},
        FuzzCase{Policy::kRandom, RandomSets::kIntervals, 5},
        FuzzCase{Policy::kRandom, RandomSets::kArbitrary, 3},
        FuzzCase{Policy::kJsq, RandomSets::kRingIntervals, 6},
        FuzzCase{Policy::kJsq, RandomSets::kArbitrary, 4},
        FuzzCase{Policy::kLeastLoaded, RandomSets::kIntervals, 5},
        FuzzCase{Policy::kLeastLoaded, RandomSets::kUnrestricted, 8},
        FuzzCase{Policy::kRr, RandomSets::kArbitrary, 5},
        FuzzCase{Policy::kRr, RandomSets::kRingIntervals, 6}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      std::ostringstream name;
      name << info.param;
      return name.str();
    });

// EFT dominates no other policy in general, but no immediate-dispatch
// policy can beat the exact optimum: a cross-policy sanity sweep on unit
// instances.
TEST(DispatcherFuzzCross, NoPolicyBeatsTheExactOptimum) {
  Rng rng(321);
  for (int trial = 0; trial < 6; ++trial) {
    RandomInstanceOptions opts;
    opts.m = 4;
    opts.n = 25;
    opts.unit_tasks = true;
    opts.integer_releases = true;
    opts.max_release = 12.0;
    opts.sets = RandomSets::kArbitrary;
    const auto inst = random_instance(opts, rng);
    const int opt = unit_optimal_fmax(inst);
    for (Policy policy : {Policy::kEftMin, Policy::kEftMax, Policy::kRandom,
                          Policy::kJsq, Policy::kRr}) {
      auto dispatcher = make_policy(policy, 7);
      const auto sched = run_dispatcher(inst, *dispatcher);
      EXPECT_GE(sched.max_flow() + 1e-9, opt) << policy_name(policy);
    }
  }
}

// FIFO-eligible, although not an immediate dispatcher, obeys the same
// model invariants.
TEST(DispatcherFuzzCross, FifoEligibleInvariants) {
  Rng rng(654);
  for (int trial = 0; trial < 6; ++trial) {
    RandomInstanceOptions opts;
    opts.m = 5;
    opts.n = 100;
    opts.sets = RandomSets::kArbitrary;
    const auto inst = random_instance(opts, rng);
    InvariantAuditor auditor;
    const auto sched =
        fifo_eligible_schedule(inst, TieBreakKind::kMin, 0, &auditor);
    ASSERT_TRUE(sched.validate().ok());
    ASSERT_TRUE(auditor.ok()) << auditor.report();
    double load_total = 0;
    for (double l : machine_loads(sched)) load_total += l;
    EXPECT_NEAR(load_total, inst.total_work(), 1e-6);
  }
}

// Unit instances with the auditor's bound oracles armed: Theorem 2 equality
// and the Theorem 1 proof-level bound are checked on every generator draw.
TEST(DispatcherFuzzCross, BoundOraclesHoldOnGeneratorDraws) {
  Rng rng(987);
  AuditConfig config;
  config.bound_oracles = true;
  for (int trial = 0; trial < 6; ++trial) {
    RandomInstanceOptions opts;
    opts.m = 4;
    opts.n = 30;
    opts.unit_tasks = true;
    opts.integer_releases = true;
    opts.max_release = 10.0;
    opts.sets = trial % 2 == 0 ? RandomSets::kUnrestricted
                               : RandomSets::kIntervals;
    const auto inst = random_instance(opts, rng);
    InvariantAuditor auditor(config);
    RunCounter counter;
    MulticastObserver fan({&auditor, &counter});
    auto eft = make_eft_min();
    run_dispatcher(inst, *eft, fan);
    fifo_eligible_schedule(inst, TieBreakKind::kMin, 0, &fan);
    EXPECT_TRUE(auditor.ok()) << auditor.report();
    EXPECT_EQ(counter.runs, 2);
  }
}

}  // namespace
}  // namespace flowsched
