#include "adversary/th8_stream.hpp"

#include <gtest/gtest.h>

#include "model/profile.hpp"
#include "model/structure.hpp"
#include "offline/unit_optimal.hpp"
#include "sched/engine.hpp"
#include "support/checks.hpp"
#include "support/profile.hpp"

namespace flowsched {
namespace {

TEST(Th8Stream, TaskTypesMatchConstruction) {
  // m=6, k=3: types are 4, 3, 2 then 1, 1, 1 (Figure 3's colored tasks).
  EXPECT_EQ(th8_task_type(1, 6, 3), 4);
  EXPECT_EQ(th8_task_type(2, 6, 3), 3);
  EXPECT_EQ(th8_task_type(3, 6, 3), 2);
  EXPECT_EQ(th8_task_type(4, 6, 3), 1);
  EXPECT_EQ(th8_task_type(6, 6, 3), 1);
  EXPECT_THROW(th8_task_type(0, 6, 3), std::invalid_argument);
  EXPECT_THROW(th8_task_type(7, 6, 3), std::invalid_argument);
}

TEST(Th8Stream, InstanceIsFixedSizeIntervalFamily) {
  const auto inst = th8_instance(6, 3, 4);
  EXPECT_EQ(inst.n(), 24);
  EXPECT_TRUE(inst.unit_tasks());
  const auto flags = inst.structure();
  EXPECT_TRUE(flags.interval);
  int k = 0;
  std::vector<ProcSet> sets;
  for (const Task& t : inst.tasks()) sets.push_back(t.eligible);
  EXPECT_TRUE(is_uniform_size_family(sets, &k));
  EXPECT_EQ(k, 3);
}

TEST(Th8Stream, PaperOptimalScheduleHasUnitFlows) {
  const auto inst = th8_instance(6, 3, 5);
  const auto opt = th8_optimal_schedule(inst, 6, 3);
  EXPECT_TRUE(opt.validate().ok()) << opt.validate().str();
  EXPECT_DOUBLE_EQ(opt.max_flow(), 1.0);
}

TEST(Th8Stream, ExactOptimumIsOne) {
  // Cross-check the paper's claimed OPT with the matching-based oracle.
  const auto inst = th8_instance(5, 2, 3);
  EXPECT_EQ(unit_optimal_fmax(inst), 1);
}

struct Th8Case {
  int m;
  int k;

  friend std::ostream& operator<<(std::ostream& os, const Th8Case& c) {
    return os << "m" << c.m << "_k" << c.k;
  }
};

class Th8EftMin : public ::testing::TestWithParam<Th8Case> {};

TEST_P(Th8EftMin, ReachesExactlyMMinusKPlusOne) {
  const auto [m, k] = GetParam();
  EftDispatcher eft(TieBreakKind::kMin);
  const auto result = run_th8(eft, m, k);
  // Lemma 4 bounds the profile by w_tau, so flows never exceed m-k+1;
  // Lemma 3 guarantees the bound is reached.
  EXPECT_DOUBLE_EQ(result.achieved_fmax, m - k + 1);
  EXPECT_DOUBLE_EQ(result.opt_fmax, 1.0);
  EXPECT_DOUBLE_EQ(result.ratio(), m - k + 1);
  EXPECT_TRUE(result.schedule.validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Sizes, Th8EftMin,
                         ::testing::Values(Th8Case{4, 2}, Th8Case{6, 3},
                                           Th8Case{6, 5}, Th8Case{8, 3},
                                           Th8Case{10, 4}, Th8Case{12, 2}));

TEST(Th8EftMinProfiles, Lemma2ProfileNonIncreasing) {
  const int m = 6;
  const int k = 3;
  EftDispatcher eft(TieBreakKind::kMin);
  const auto result = run_th8(eft, m, k, 40);
  // At every integer step t, just before the adversary's releases, the
  // profile w_t(j) must be non-increasing in j (Lemma 2).
  for (int t = 0; t <= 40; ++t) {
    auto w = machine_frontier(result.schedule, m * t);
    for (auto& v : w) v = std::max(0.0, v - t);
    EXPECT_TRUE(profile_nonincreasing(w)) << "t=" << t;
  }
}

TEST(Th8EftMinProfiles, Lemma4ProfileNeverExceedsStable) {
  const int m = 8;
  const int k = 3;
  EftDispatcher eft(TieBreakKind::kMin);
  const auto result = run_th8(eft, m, k, 60);
  const auto w_tau = stable_profile(m, k);
  for (int t = 0; t <= 60; ++t) {
    auto w = machine_frontier(result.schedule, m * t);
    for (auto& v : w) v = std::max(0.0, v - t);
    EXPECT_TRUE(profile_leq(w, w_tau)) << "t=" << t;
  }
}

TEST(Th8EftMinProfiles, ConvergesToStableProfile) {
  const int m = 6;
  const int k = 3;
  EftDispatcher eft(TieBreakKind::kMin);
  OnlineEngine engine(m, eft);
  const int steps = 4 * m * m + 8;
  bool reached = false;
  for (int t = 0; t < steps && !reached; ++t) {
    for (int i = 1; i <= m; ++i) {
      const int lo = th8_task_type(i, m, k) - 1;
      engine.release(Task{.release = static_cast<double>(t),
                          .proc = 1.0,
                          .eligible = ProcSet::interval(lo, lo + k - 1)});
    }
    const auto w = engine.profile(t + 1);
    reached = w == stable_profile(m, k);
  }
  EXPECT_TRUE(reached) << "EFT-Min never reached w_tau";
}

TEST(Th8EftRand, Theorem9RandTieBreakAlsoDegrades) {
  // Almost-sure statement; with this horizon and seed the stable profile is
  // reached deterministically given the fixed RNG stream.
  const int m = 6;
  const int k = 3;
  EftDispatcher eft(TieBreakKind::kRand, /*seed=*/2024);
  const auto result = run_th8(eft, m, k, 6 * m * m);
  EXPECT_GE(result.achieved_fmax, m - k + 1);
}

TEST(Th8Stream, RejectsDegenerateParameters) {
  EftDispatcher eft(TieBreakKind::kMin);
  EXPECT_THROW(run_th8(eft, 4, 1, 10), std::invalid_argument);  // k == 1
  EXPECT_THROW(run_th8(eft, 4, 4, 10), std::invalid_argument);  // k == m
  EXPECT_THROW(th8_instance(6, 3, 0), std::invalid_argument);
}

}  // namespace
}  // namespace flowsched
