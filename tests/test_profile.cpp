#include "model/profile.hpp"

#include <gtest/gtest.h>

#include "support/profile.hpp"

namespace flowsched {
namespace {

TEST(Profile, FrontierTracksPrefix) {
  const auto inst = Instance::unrestricted(2, {{0.0, 2.0}, {0.0, 1.0}, {1.0, 3.0}});
  Schedule s(inst);
  s.assign(0, 0, 0.0);
  s.assign(1, 1, 0.0);
  s.assign(2, 1, 1.0);
  const auto f2 = machine_frontier(s, 2);
  EXPECT_DOUBLE_EQ(f2[0], 2.0);
  EXPECT_DOUBLE_EQ(f2[1], 1.0);
  const auto f3 = machine_frontier(s, 3);
  EXPECT_DOUBLE_EQ(f3[1], 4.0);
}

TEST(Profile, ProfileClampsAtZero) {
  const auto inst = Instance::unrestricted(2, {{0.0, 1.0}});
  Schedule s(inst);
  s.assign(0, 0, 0.0);
  const auto w = profile_at(s, 1, 5.0);
  EXPECT_DOUBLE_EQ(w[0], 0.0);
  EXPECT_DOUBLE_EQ(w[1], 0.0);
}

TEST(Profile, StableProfileMatchesPaperFormula) {
  // m=6, k=3 (Figure 4): w_tau = (3, 3, 3, 2, 1, 0) in 1-based machine order.
  const auto w = stable_profile(6, 3);
  EXPECT_EQ(w, (std::vector<double>{3, 3, 3, 2, 1, 0}));
}

TEST(Profile, StableProfileLastMachineZero) {
  for (int m : {4, 8, 15}) {
    for (int k = 2; k < m; ++k) {
      const auto w = stable_profile(m, k);
      EXPECT_DOUBLE_EQ(w.back(), 0.0);
      EXPECT_DOUBLE_EQ(w.front(), static_cast<double>(m - k));
      EXPECT_TRUE(profile_nonincreasing(w));
    }
  }
}

TEST(Profile, Comparisons) {
  const std::vector<double> a{1, 1, 0};
  const std::vector<double> b{2, 1, 0};
  EXPECT_TRUE(profile_leq(a, b));
  EXPECT_TRUE(profile_lt(a, b));
  EXPECT_FALSE(profile_lt(a, a));
  EXPECT_TRUE(profile_leq(a, a));
  EXPECT_FALSE(profile_leq(b, a));
  EXPECT_FALSE(profile_leq(a, std::vector<double>{1, 1}));  // size mismatch
}

TEST(Profile, NonincreasingDetection) {
  EXPECT_TRUE(profile_nonincreasing({3, 2, 2, 0}));
  EXPECT_FALSE(profile_nonincreasing({1, 2}));
}

TEST(Profile, TotalSumsWork) {
  EXPECT_DOUBLE_EQ(profile_total({1.5, 2.5, 0.0}), 4.0);
}

}  // namespace
}  // namespace flowsched
