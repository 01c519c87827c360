// Adversaries for Theorems 3, 4, 5, 7 and the disjoint upper bound
// (Theorem 6 / Corollary 1).
#include <gtest/gtest.h>

#include <cmath>

#include "adversary/inclusive.hpp"
#include "adversary/interval2.hpp"
#include "adversary/ksize.hpp"
#include "adversary/nested.hpp"
#include "model/structure.hpp"
#include "offline/bruteforce.hpp"
#include "offline/unit_optimal.hpp"
#include "sched/engine.hpp"
#include "sched/fifo.hpp"
#include "support/checks.hpp"
#include "support/fifo_oracle.hpp"
#include "util/rng.hpp"
#include "workload/replication.hpp"

namespace flowsched {
namespace {

std::vector<ProcSet> sets_of(const Schedule& sched) {
  std::vector<ProcSet> sets;
  for (const Task& t : sched.instance().tasks()) sets.push_back(t.eligible);
  return sets;
}

// ---------------------------------------------------------------- Theorem 3

TEST(Th3Inclusive, FamilyIsInclusive) {
  EftDispatcher eft(TieBreakKind::kMin);
  const auto result = run_th3_inclusive(eft, 8, 10.0);
  EXPECT_TRUE(is_inclusive_family(sets_of(result.schedule)));
  EXPECT_TRUE(result.schedule.validate().ok());
}

TEST(Th3Inclusive, ForcesLogarithmicPileUp) {
  // m = 8 (L = 3), p = 100: Fmax >= (L+1)p - L = 397.
  EftDispatcher eft(TieBreakKind::kMin);
  const auto result = run_th3_inclusive(eft, 8, 100.0);
  EXPECT_GE(result.achieved_fmax, 4 * 100.0 - 3);
  EXPECT_DOUBLE_EQ(result.opt_fmax, 100.0);
  EXPECT_GE(result.ratio(), 3.9);  // -> floor(log2 8 + 1) = 4 as p grows
}

TEST(Th3Inclusive, WorksAgainstOtherImmediateDispatchers) {
  // The bound holds for ANY immediate dispatch algorithm.
  for (auto kind : {TieBreakKind::kMax, TieBreakKind::kRand}) {
    EftDispatcher eft(kind, 5);
    const auto result = run_th3_inclusive(eft, 8, 50.0);
    EXPECT_GE(result.achieved_fmax, 4 * 50.0 - 3) << to_string(kind);
  }
  RandomEligibleDispatcher random_dispatch(9);
  const auto result = run_th3_inclusive(random_dispatch, 8, 50.0);
  EXPECT_GE(result.achieved_fmax, 4 * 50.0 - 3);
}

TEST(Th3Inclusive, NonPowerOfTwoRoundsDown) {
  EftDispatcher eft(TieBreakKind::kMin);
  const auto result = run_th3_inclusive(eft, 11, 50.0);  // uses m = 8
  EXPECT_EQ(result.schedule.instance().m(), 8);
  EXPECT_GE(result.achieved_fmax, 4 * 50.0 - 3);
}

TEST(Th3Inclusive, OptimumIsIndeedP) {
  // Small case solved exactly: m=4, p=3 -> brute force confirms OPT == p.
  EftDispatcher eft(TieBreakKind::kMin);
  const auto result = run_th3_inclusive(eft, 4, 3.0);
  // n = 2 + 1 + 1 = 4 tasks on 4 machines.
  EXPECT_DOUBLE_EQ(brute_force_opt_fmax(result.schedule.instance()), 3.0);
}

TEST(Th3Inclusive, RejectsBadParameters) {
  EftDispatcher eft(TieBreakKind::kMin);
  EXPECT_THROW(run_th3_inclusive(eft, 1, 10.0), std::invalid_argument);
  EXPECT_THROW(run_th3_inclusive(eft, 8, 2.0), std::invalid_argument);  // p <= L
}

// ---------------------------------------------------------------- Theorem 4

TEST(Th4KSize, SetsHaveUniformSizeK) {
  EftDispatcher eft(TieBreakKind::kMin);
  const auto result = run_th4_ksize(eft, 9, 3, 10.0);
  int k = 0;
  EXPECT_TRUE(is_uniform_size_family(sets_of(result.schedule), &k));
  EXPECT_EQ(k, 3);
  EXPECT_TRUE(result.schedule.validate().ok());
}

TEST(Th4KSize, ForcesLogKPileUp) {
  // m = 9, k = 3 (L = 2), p = 100: Fmax >= 2*100 - 1.
  EftDispatcher eft(TieBreakKind::kMin);
  const auto result = run_th4_ksize(eft, 9, 3, 100.0);
  EXPECT_GE(result.achieved_fmax, 199.0);
  EXPECT_DOUBLE_EQ(result.opt_fmax, 100.0);
  EXPECT_GE(result.ratio(), 1.99);  // -> floor(log_3 9) = 2
}

TEST(Th4KSize, DeeperRecursionWithK2) {
  // m = 8, k = 2 (L = 3): ratio -> 3.
  EftDispatcher eft(TieBreakKind::kMax);
  const auto result = run_th4_ksize(eft, 8, 2, 60.0);
  EXPECT_GE(result.achieved_fmax, 3 * 60.0 - 2);
  EXPECT_GE(result.ratio(), 2.9);
}

TEST(Th4KSize, OptimumIsP) {
  EftDispatcher eft(TieBreakKind::kMin);
  const auto result = run_th4_ksize(eft, 4, 2, 4.0);
  // n = 2 + 1 = 3 tasks: brute-force the exact optimum.
  EXPECT_DOUBLE_EQ(brute_force_opt_fmax(result.schedule.instance()), 4.0);
}

TEST(Th4KSize, GuaranteedBoundIsExactInteger) {
  // Regression: floor(log(243)/log(3)) = 4 in floating point; the bound
  // must be the exact floor(log_k m') = 5.
  EftDispatcher eft(TieBreakKind::kMin);
  const auto result = run_th4_ksize(eft, 243, 3, 10.0);
  EXPECT_DOUBLE_EQ(result.lower_bound, 5.0);
  EXPECT_GE(result.achieved_fmax, 5 * 10.0 - 4);
}

TEST(Th4KSize, RejectsBadParameters) {
  EftDispatcher eft(TieBreakKind::kMin);
  EXPECT_THROW(run_th4_ksize(eft, 8, 1, 10.0), std::invalid_argument);
  EXPECT_THROW(run_th4_ksize(eft, 2, 3, 10.0), std::invalid_argument);
  EXPECT_THROW(run_th4_ksize(eft, 9, 3, 1.5), std::invalid_argument);
}

// ---------------------------------------------------------------- Theorem 5

TEST(Th5Nested, FamilyIsNested) {
  EftDispatcher eft(TieBreakKind::kMin);
  const auto result = run_th5_nested(eft, 8);
  EXPECT_TRUE(is_nested_family(sets_of(result.schedule)));
  EXPECT_TRUE(result.schedule.validate().ok());
}

TEST(Th5Nested, ForcesFlowOfLogPlusTwo) {
  EftDispatcher eft(TieBreakKind::kMin);
  const auto result = run_th5_nested(eft, 8);  // L = 3
  EXPECT_GE(result.achieved_fmax, 3 + 2);
  EXPECT_DOUBLE_EQ(result.opt_fmax, 3.0);
}

TEST(Th5Nested, HoldsForOtherTieBreaks) {
  for (auto kind : {TieBreakKind::kMax, TieBreakKind::kRand}) {
    EftDispatcher eft(kind, 11);
    const auto result = run_th5_nested(eft, 8);
    EXPECT_GE(result.achieved_fmax, 5.0) << to_string(kind);
  }
}

TEST(Th5Nested, PaperOptimumConfirmedExactly) {
  // m = 4: the exact unit-task optimum of the generated instance is <= 3,
  // matching the paper's offline strategy.
  EftDispatcher eft(TieBreakKind::kMin);
  const auto result = run_th5_nested(eft, 4);
  EXPECT_LE(unit_optimal_fmax(result.schedule.instance()), 3);
}

TEST(Th5Nested, DefeatsNonImmediateDispatchToo) {
  // Theorem 5 covers ANY online algorithm; exercise the queue-based
  // FIFO-eligible scheduler through the replay oracle.
  FifoEligibleOracle oracle(th5_machine_count(8));
  const auto result = run_th5_nested(oracle, 8);
  EXPECT_GE(result.achieved_fmax, 3 + 2);
  EXPECT_TRUE(result.schedule.validate().ok()) << result.schedule.validate().str();
}

TEST(Th5Nested, OracleRequiresMatchingMachineCount) {
  FifoEligibleOracle oracle(7);  // not 2^floor(log2(8)) = 8
  EXPECT_THROW(run_th5_nested(oracle, 8), std::invalid_argument);
}

TEST(FifoEligibleOracleTest, MatchesDirectSimulation) {
  FifoEligibleOracle oracle(3);
  std::vector<Task> tasks{
      {.release = 0, .proc = 2, .eligible = ProcSet({0, 1})},
      {.release = 0, .proc = 1, .eligible = ProcSet({0})},
      {.release = 1, .proc = 1, .eligible = ProcSet({1, 2})},
  };
  for (const auto& t : tasks) oracle.release(t);
  const Instance inst(3, tasks);
  const auto direct = fifo_eligible_schedule(inst);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(oracle.completion(i), direct.completion(i)) << i;
  }
  EXPECT_TRUE(oracle.snapshot().validate().ok());
}

TEST(FifoEligibleOracleTest, IncrementalQueriesStayConsistent) {
  // Query between releases: the completion of an already-finished task must
  // not change when more tasks arrive later.
  FifoEligibleOracle oracle(2);
  oracle.release({.release = 0, .proc = 1, .eligible = ProcSet({0})});
  const double first = oracle.completion(0);
  oracle.release({.release = 5, .proc = 1, .eligible = ProcSet({0})});
  oracle.release({.release = 5, .proc = 1, .eligible = ProcSet({1})});
  EXPECT_DOUBLE_EQ(oracle.completion(0), first);
}

TEST(Th5Nested, LargerClusterGrowsBound) {
  EftDispatcher eft(TieBreakKind::kMin);
  const auto result = run_th5_nested(eft, 16);  // L = 4
  EXPECT_GE(result.achieved_fmax, 4 + 2);
}

TEST(Th5Nested, RejectsTinyClusters) {
  EftDispatcher eft(TieBreakKind::kMin);
  EXPECT_THROW(run_th5_nested(eft, 3), std::invalid_argument);
}

// ---------------------------------------------------------------- Theorem 7

TEST(Th7Interval, EftMinSuffersTwiceOpt) {
  EftDispatcher eft(TieBreakKind::kMin);
  const auto result = run_th7_interval(eft, 50.0);
  EXPECT_DOUBLE_EQ(result.achieved_fmax, 2 * 50.0 - 1);
  EXPECT_DOUBLE_EQ(result.opt_fmax, 50.0);
  EXPECT_NEAR(result.ratio(), 2.0, 0.05);
}

TEST(Th7Interval, BothBranchesOfTheAdversary) {
  // Min picks M2 (case i), Max picks M3 (case ii); both must be punished.
  EftDispatcher min_d(TieBreakKind::kMin);
  EftDispatcher max_d(TieBreakKind::kMax);
  const auto r_min = run_th7_interval(min_d, 20.0);
  const auto r_max = run_th7_interval(max_d, 20.0);
  EXPECT_DOUBLE_EQ(r_min.achieved_fmax, 39.0);
  EXPECT_DOUBLE_EQ(r_max.achieved_fmax, 39.0);
}

TEST(Th7Interval, OptimumConfirmedByBruteForce) {
  EftDispatcher eft(TieBreakKind::kMin);
  const auto result = run_th7_interval(eft, 7.0);
  EXPECT_DOUBLE_EQ(brute_force_opt_fmax(result.schedule.instance()), 7.0);
}

TEST(Th7Interval, InstanceUsesFixedSizeIntervals) {
  EftDispatcher eft(TieBreakKind::kMin);
  const auto result = run_th7_interval(eft, 5.0);
  int k = 0;
  EXPECT_TRUE(is_uniform_size_family(sets_of(result.schedule), &k));
  EXPECT_EQ(k, 2);
  EXPECT_TRUE(is_interval_family(sets_of(result.schedule), 4));
}

// -------------------------------------------- Theorem 6 / Corollary 1 check

TEST(Corollary1, EftOnDisjointIntervalsStaysWithinBound) {
  // EFT restricted to disjoint blocks of size k is (3 - 2/k)-competitive.
  // Generate random unit-task instances with disjoint-block sets and compare
  // to the exact optimum.
  Rng rng(97);
  const int m = 6;
  const int k = 3;
  const auto blocks = replica_sets(ReplicationStrategy::kDisjoint, k, m);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Task> tasks;
    for (int i = 0; i < 60; ++i) {
      tasks.push_back(
          {.release = static_cast<double>(rng.uniform_int(0, 15)),
           .proc = 1.0,
           .eligible = blocks[static_cast<std::size_t>(rng.uniform_int(0, m - 1))]});
    }
    const Instance inst(m, std::move(tasks));
    EftDispatcher eft(TieBreakKind::kMin);
    const auto sched = run_dispatcher(inst, eft);
    const double opt = unit_optimal_fmax(inst);
    EXPECT_LE(sched.max_flow(), (3.0 - 2.0 / k) * opt + 1e-9)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace flowsched
