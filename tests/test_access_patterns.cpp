#include "workload/access_patterns.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "workload/zipf.hpp"

namespace flowsched {
namespace {

TEST(AccessPattern, UniformWeightsEqual) {
  const auto p = AccessPattern::uniform(10);
  for (double w : p.weights()) EXPECT_NEAR(w, 0.1, 1e-12);
}

TEST(AccessPattern, ZipfianMatchesZipfWeights) {
  const auto p = AccessPattern::zipfian(8, 1.0);
  const auto z = zipf_weights(8, 1.0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_NEAR(p.weights()[static_cast<std::size_t>(i)],
                z[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(AccessPattern, LatestFavorsHighestKeyIds) {
  const auto p = AccessPattern::latest(10, 1.0);
  EXPECT_GT(p.weights().back(), p.weights().front());
  EXPECT_TRUE(std::is_sorted(p.weights().begin(), p.weights().end()));
}

TEST(AccessPattern, HotspotSplitsMassAsConfigured) {
  // 20% of keys get 80% of operations.
  const auto p = AccessPattern::hotspot(100, 0.2, 0.8);
  double hot_mass = 0;
  for (int i = 0; i < 20; ++i) hot_mass += p.weights()[static_cast<std::size_t>(i)];
  EXPECT_NEAR(hot_mass, 0.8, 1e-9);
}

TEST(AccessPattern, HotspotDegenerateRegions) {
  // A single hot key; all operations on it.
  const auto p = AccessPattern::hotspot(5, 0.01, 1.0);
  EXPECT_NEAR(p.weights()[0], 1.0, 1e-12);
}

TEST(AccessPattern, WeightsAlwaysNormalized) {
  for (const auto& p :
       {AccessPattern::uniform(7), AccessPattern::zipfian(7, 2.0),
        AccessPattern::latest(7, 0.5), AccessPattern::hotspot(7, 0.3, 0.9),
        AccessPattern::from_weights({3.0, 1.0, 4.0})}) {
    const double total =
        std::accumulate(p.weights().begin(), p.weights().end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(AccessPattern, MachinePopularityAggregatesByOwner) {
  // 4 keys on 2 machines, weights (0.4, 0.3, 0.2, 0.1): owners 0,1,0,1.
  const auto p = AccessPattern::from_weights({0.4, 0.3, 0.2, 0.1});
  const auto pop = p.machine_popularity(2);
  EXPECT_NEAR(pop[0], 0.6, 1e-12);
  EXPECT_NEAR(pop[1], 0.4, 1e-12);
}

TEST(AccessPattern, RejectsBadInput) {
  EXPECT_THROW(AccessPattern::uniform(0), std::invalid_argument);
  EXPECT_THROW(AccessPattern::hotspot(10, 0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(AccessPattern::hotspot(10, 1.5, 0.5), std::invalid_argument);
  EXPECT_THROW(AccessPattern::from_weights({1.0, -1.0}), std::invalid_argument);
  EXPECT_THROW(AccessPattern::from_weights({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(AccessPattern::from_weights({}), std::invalid_argument);
  const auto p = AccessPattern::uniform(4);
  EXPECT_THROW(p.machine_popularity(0), std::invalid_argument);
}

}  // namespace
}  // namespace flowsched
