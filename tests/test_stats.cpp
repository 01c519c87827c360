#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace flowsched {
namespace {

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, MeanBasic) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 3, 2}), 2.5);
}

TEST(Stats, MedianThrowsOnEmpty) {
  EXPECT_THROW(median(std::vector<double>{}), std::invalid_argument);
}

TEST(Stats, QuantileEndpoints) {
  const std::vector<double> xs{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.75), 7.5);
}

TEST(Stats, QuantileRejectsOutOfRange) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW(quantile(xs, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile(xs, 1.1), std::invalid_argument);
}

// Selection reads the same order statistics a full sort does: adjacent and
// repeated positions (small n, q = 0 and 1, equal q), ties and random data.
TEST(Stats, SelectQuantilesMatchSort) {
  const std::vector<double> qs{0.0, 0.0, 0.25, 0.5, 0.5, 0.9, 0.99, 0.999, 1.0};
  std::uint64_t state = 12345;
  for (std::size_t n : {1u, 2u, 3u, 4u, 7u, 100u, 1001u}) {
    for (int ties = 0; ties < 2; ++ties) {
      std::vector<double> xs(n);
      for (double& x : xs) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        x = ties ? static_cast<double>(state >> 62)
                 : static_cast<double>(state >> 11) * 0x1p-53;
      }
      std::vector<double> sorted = xs;
      std::sort(sorted.begin(), sorted.end());
      const std::vector<double> got = select_quantiles(xs, qs);
      ASSERT_EQ(got.size(), qs.size());
      for (std::size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(got[i], quantile_sorted(sorted, qs[i]))
            << "n=" << n << " ties=" << ties << " q=" << qs[i];
      }
    }
  }
  std::vector<double> xs{3, 1, 2};
  const std::vector<double> descending{0.9, 0.5};
  EXPECT_THROW(select_quantiles(xs, descending), std::invalid_argument);
  std::vector<double> empty;
  EXPECT_THROW(select_quantiles(empty, qs), std::invalid_argument);
}

TEST(Stats, StddevMatchesOnline) {
  // The sample (n - 1) form a Welford accumulator gives: mean 5, sum of
  // squared deviations 32 over 7 degrees of freedom.
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

}  // namespace
}  // namespace flowsched
