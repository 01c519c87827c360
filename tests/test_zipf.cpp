#include "workload/zipf.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "support/zipf_sampler.hpp"

namespace flowsched {
namespace {

TEST(Zipf, HarmonicNumberBasics) {
  EXPECT_DOUBLE_EQ(generalized_harmonic(1, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(generalized_harmonic(3, 0.0), 3.0);
  EXPECT_NEAR(generalized_harmonic(3, 1.0), 1.0 + 0.5 + 1.0 / 3.0, 1e-12);
  EXPECT_THROW(generalized_harmonic(0, 1.0), std::invalid_argument);
}

TEST(Zipf, WeightsSumToOne) {
  for (double s : {0.0, 0.5, 1.0, 2.5, 5.0}) {
    const auto w = zipf_weights(15, s);
    const double total = std::accumulate(w.begin(), w.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-12) << "s=" << s;
  }
}

TEST(Zipf, ZeroShapeIsUniform) {
  const auto w = zipf_weights(6, 0.0);
  for (double x : w) EXPECT_NEAR(x, 1.0 / 6.0, 1e-12);
}

TEST(Zipf, WeightsDecreaseWithRank) {
  const auto w = zipf_weights(10, 1.0);
  for (std::size_t i = 0; i + 1 < w.size(); ++i) EXPECT_GT(w[i], w[i + 1]);
}

TEST(Zipf, ExactFormula) {
  // P(E_j) = 1 / (j^s H_{m,s}).
  const int m = 7;
  const double s = 1.3;
  const double h = generalized_harmonic(m, s);
  const auto w = zipf_weights(m, s);
  for (int j = 1; j <= m; ++j) {
    EXPECT_NEAR(w[static_cast<std::size_t>(j - 1)],
                1.0 / (std::pow(j, s) * h), 1e-12);
  }
}

TEST(Zipf, LargerShapeConcentratesMass) {
  const auto mild = zipf_weights(10, 0.5);
  const auto steep = zipf_weights(10, 3.0);
  EXPECT_GT(steep[0], mild[0]);
  EXPECT_LT(steep[9], mild[9]);
}

TEST(Zipf, RejectsNegativeShape) {
  EXPECT_THROW(zipf_weights(5, -0.1), std::invalid_argument);
}

TEST(ZipfSampler, EmpiricalFrequenciesMatchWeights) {
  const int m = 8;
  const double s = 1.0;
  ZipfSampler sampler(m, s);
  Rng rng(2024);
  std::vector<int> counts(m, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[sampler.sample(rng)];
  for (int j = 0; j < m; ++j) {
    EXPECT_NEAR(counts[static_cast<std::size_t>(j)] / static_cast<double>(n),
                sampler.weights()[static_cast<std::size_t>(j)], 0.01)
        << "rank " << j;
  }
}

TEST(ZipfSampler, AlwaysInRange) {
  ZipfSampler sampler(4, 2.0);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(sampler.sample(rng), 4u);
}

}  // namespace
}  // namespace flowsched
