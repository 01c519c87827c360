// Computational validation of Lemma 5: the weighted distance Phi is
// non-increasing along EFT runs of the Theorem 8 adversary, for every
// tie-break policy, and hits its floor exactly when the profile reaches
// the stable profile.
#include "adversary/phi.hpp"

#include <gtest/gtest.h>

#include "adversary/th8_stream.hpp"
#include "model/profile.hpp"
#include "sched/engine.hpp"

namespace flowsched {

// Names the AllTieBreaks cases' parameter for gtest (an enum cannot carry a
// friend printer, and argument-dependent lookup searches only flowsched).
std::ostream& operator<<(std::ostream& os, TieBreakKind kind) {
  return os << to_string(kind);
}

namespace {

TEST(Phi, ZeroProfileValue) {
  // Empty profile: phi(j) = 2^{w_tau(j)} * (m - k + 1).
  const int m = 6;
  const int k = 3;
  const std::vector<double> w(static_cast<std::size_t>(m), 0.0);
  // Machine 0 (0-based): w_tau = m - k = 3 -> 8 * 4 = 32.
  EXPECT_DOUBLE_EQ(phi_weighted_distance(w, m, k, 0), 32.0);
  // Last machine: w_tau = 0 -> 1 * 4 = 4.
  EXPECT_DOUBLE_EQ(phi_weighted_distance(w, m, k, m - 1), 4.0);
}

TEST(Phi, StableProfileMinimizesPhiOverReachableProfiles) {
  // Phi at w_tau is strictly below Phi at any profile that is behind it.
  const int m = 6;
  const int k = 3;
  const auto w_tau = stable_profile(m, k);
  const double at_stable = phi_total(w_tau, m, k);
  std::vector<double> behind = w_tau;
  behind[0] -= 1;  // strictly behind
  EXPECT_LT(at_stable, phi_total(behind, m, k));
}

TEST(Phi, PartialSumsAddUp) {
  const int m = 8;
  const int k = 3;
  const std::vector<double> w{5, 4, 3, 3, 2, 2, 1, 0};
  EXPECT_NEAR(phi_partial(w, m, k, 0, 3) + phi_partial(w, m, k, 4, 7),
              phi_total(w, m, k), 1e-9);
  EXPECT_THROW(phi_partial(w, m, k, 3, 2), std::invalid_argument);
  EXPECT_THROW(phi_weighted_distance(w, m, k, 8), std::invalid_argument);
}

class PhiDescent : public ::testing::TestWithParam<TieBreakKind> {};

TEST_P(PhiDescent, Lemma5PhiNonIncreasingUnderTh8Adversary) {
  const int m = 8;
  const int k = 3;
  EftDispatcher eft(GetParam(), /*seed=*/77);
  OnlineEngine engine(m, eft);
  double prev = phi_total(engine.profile(0.0), m, k);
  for (int t = 0; t < 80; ++t) {
    for (int i = 1; i <= m; ++i) {
      const int lo = th8_task_type(i, m, k) - 1;
      engine.release(Task{.release = static_cast<double>(t),
                          .proc = 1.0,
                          .eligible = ProcSet::interval(lo, lo + k - 1)});
    }
    const double now = phi_total(engine.profile(t + 1.0), m, k);
    EXPECT_LE(now, prev + 1e-9) << "Phi increased at t=" << t;
    prev = now;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTieBreaks, PhiDescent,
                         ::testing::Values(TieBreakKind::kMin,
                                           TieBreakKind::kMax,
                                           TieBreakKind::kRand),
                         [](const ::testing::TestParamInfo<TieBreakKind>& info) {
                           return to_string(info.param);
                         });

TEST(PhiDescent, EftMinReachesThePhiFloor) {
  // For EFT-Min, Phi descends to exactly Phi(w_tau) and stays there.
  const int m = 6;
  const int k = 3;
  EftDispatcher eft(TieBreakKind::kMin);
  OnlineEngine engine(m, eft);
  const double floor_phi = phi_total(stable_profile(m, k), m, k);
  double last = 0;
  for (int t = 0; t < 4 * m * m; ++t) {
    for (int i = 1; i <= m; ++i) {
      const int lo = th8_task_type(i, m, k) - 1;
      engine.release(Task{.release = static_cast<double>(t),
                          .proc = 1.0,
                          .eligible = ProcSet::interval(lo, lo + k - 1)});
    }
    last = phi_total(engine.profile(t + 1.0), m, k);
  }
  EXPECT_DOUBLE_EQ(last, floor_phi);
}

}  // namespace
}  // namespace flowsched
