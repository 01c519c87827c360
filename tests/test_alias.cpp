// Walker/Vose alias sampler (workload/alias.hpp): construction invariants,
// the exact per-index acceptance probabilities, the one-uniform-per-draw
// deviate budget, and distributional equivalence with the inverse-CDF
// ZipfSampler it replaced. Equivalence is chi-square, not draw-for-draw:
// the alias method maps the same uniforms to different (identically
// distributed) indices, so downstream code sees the same *stream positions*
// but not the same key values — docs/streaming.md spells this out.
#include "workload/alias.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace flowsched {
namespace {

TEST(Alias, RejectsDegenerateWeights) {
  EXPECT_THROW(AliasSampler(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(AliasSampler(std::vector<double>{1.0, -0.5}),
               std::invalid_argument);
  EXPECT_THROW(AliasSampler(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
}

TEST(Alias, NormalizesWeights) {
  const AliasSampler sampler(std::vector<double>{2.0, 6.0});
  ASSERT_EQ(sampler.size(), 2u);
  EXPECT_NEAR(sampler.weights()[0], 0.25, 1e-15);
  EXPECT_NEAR(sampler.weights()[1], 0.75, 1e-15);
}

TEST(Alias, SingleColumnAlwaysSampled) {
  const AliasSampler sampler(std::vector<double>{3.0});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.sample(rng), 0u);
}

// The acceptance test: summing each column's retained mass plus the mass
// aliased into it from other columns must reconstruct the input weights
// exactly — this is the defining invariant of a correct Vose build.
TEST(Alias, TableProbabilitiesReconstructWeights) {
  for (double s : {0.0, 0.5, 1.0, 2.5}) {
    const AliasSampler sampler(8, s);
    const auto expected = zipf_weights(8, s);
    for (std::size_t i = 0; i < sampler.size(); ++i) {
      EXPECT_NEAR(sampler.table_probability(i), expected[i], 1e-12)
          << "s=" << s << " i=" << i;
    }
  }
}

TEST(Alias, ZipfCtorMatchesZipfWeights) {
  const AliasSampler sampler(11, 1.3);
  const auto expected = zipf_weights(11, 1.3);
  ASSERT_EQ(sampler.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(sampler.weights()[i], expected[i]);
  }
}

TEST(Alias, DeterministicDrawSequence) {
  const AliasSampler sampler(16, 1.0);
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(sampler.sample(a), sampler.sample(b));
}

// Exactly one Rng::uniform() per draw — the deviate budget that keeps the
// arrival/service draws interleaved with key draws (kvstore/cluster_sim)
// at the same stream positions as the inverse-CDF sampler.
TEST(Alias, ConsumesExactlyOneUniformPerDraw) {
  const AliasSampler sampler(9, 0.8);
  Rng sampled(7), advanced(7);
  for (int i = 0; i < 500; ++i) {
    sampler.sample(sampled);
    advanced.uniform();
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(sampled.uniform(), advanced.uniform());
  }
}

// Chi-square goodness of fit of alias draws against the Zipf pmf, and the
// same statistic for the inverse-CDF ZipfSampler on the same budget: both
// must sit below the 99.9th-percentile critical value, i.e. the two
// samplers are statistically indistinguishable from the target law (and
// hence from each other).
TEST(Alias, ChiSquareEquivalenceWithZipfSampler) {
  const int m = 12;
  const double s = 1.0;
  const int draws = 200000;
  const auto expected = zipf_weights(m, s);

  const AliasSampler alias(m, s);
  const ZipfSampler inverse(m, s);
  std::vector<int> alias_counts(static_cast<std::size_t>(m), 0);
  std::vector<int> inverse_counts(static_cast<std::size_t>(m), 0);
  Rng ra(2026), ri(2026);
  for (int i = 0; i < draws; ++i) {
    ++alias_counts[alias.sample(ra)];
    ++inverse_counts[inverse.sample(ri)];
  }

  const auto chi2 = [&](const std::vector<int>& counts) {
    double stat = 0;
    for (int j = 0; j < m; ++j) {
      const double e = expected[static_cast<std::size_t>(j)] * draws;
      const double d = counts[static_cast<std::size_t>(j)] - e;
      stat += d * d / e;
    }
    return stat;
  };
  // chi2_{0.999, df=11} = 31.26.
  EXPECT_LT(chi2(alias_counts), 31.26);
  EXPECT_LT(chi2(inverse_counts), 31.26);
}

TEST(Alias, EmpiricalFrequenciesMatchSkewedWeights) {
  const AliasSampler sampler(std::vector<double>{8.0, 1.0, 1.0});
  Rng rng(5);
  const int draws = 100000;
  std::vector<int> counts(3, 0);
  for (int i = 0; i < draws; ++i) ++counts[sampler.sample(rng)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / draws, 0.8, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / draws, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / draws, 0.1, 0.01);
}

// The two-array Vose build the one-column layout replaced, kept verbatim as
// the reference: separate prob/alias arrays and scaled mass, two index
// stacks.
struct TwoArrayAlias {
  std::vector<double> prob;
  std::vector<std::uint32_t> alias;

  explicit TwoArrayAlias(const std::vector<double>& weights) {
    const std::size_t n = weights.size();
    prob.assign(n, 1.0);
    alias.resize(n);
    std::vector<double> scaled(n);
    std::vector<std::uint32_t> small;
    std::vector<std::uint32_t> large;
    for (std::size_t i = 0; i < n; ++i) {
      scaled[i] = weights[i] * static_cast<double>(n);
      alias[i] = static_cast<std::uint32_t>(i);
      (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      const std::uint32_t s = small.back();
      const std::uint32_t l = large.back();
      small.pop_back();
      prob[s] = scaled[s];
      alias[s] = l;
      scaled[l] -= 1.0 - scaled[s];
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (std::uint32_t i : small) prob[i] = 1.0;
    for (std::uint32_t i : large) prob[i] = 1.0;
  }

  std::size_t sample(Rng& rng) const {
    const double u = rng.uniform() * static_cast<double>(prob.size());
    std::size_t i = static_cast<std::size_t>(u);
    if (i >= prob.size()) i = prob.size() - 1;
    return (u - static_cast<double>(i)) < prob[i]
               ? i
               : static_cast<std::size_t>(alias[i]);
  }
};

// The one-column, in-place build draws exactly the two-array build's keys.
void expect_same_draws(const std::vector<double>& weights, const char* what) {
  const AliasSampler sampler(weights);
  const TwoArrayAlias reference(sampler.weights());
  Rng a(1234), b(1234);
  for (int i = 0; i < 1'000'000; ++i) {
    const std::size_t got = sampler.sample(a);
    const std::size_t want = reference.sample(b);
    if (got != want) {
      FAIL() << what << ": draw " << i << " gave " << got << ", reference "
             << want;
    }
  }
}

TEST(Alias, ColumnBuildDrawsTheTwoArrayKeys) {
  for (double s : {0.0, 0.5, 1.0, 1.5}) {
    for (int n : {1, 7, 25600, 409600}) {
      expect_same_draws(zipf_weights(n, s),
                        ("zipf s=" + std::to_string(s) + " n=" +
                         std::to_string(n)).c_str());
    }
  }
  // Zero-weight columns are always underfull and always alias away.
  expect_same_draws({0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 5.0}, "sparse");
  std::vector<double> holes = zipf_weights(25600, 1.0);
  Rng rng(9);
  rng.shuffle(holes);
  for (std::size_t i = 0; i < holes.size(); i += 3) holes[i] = 0.0;
  expect_same_draws(holes, "zipf with every third weight zeroed");
}

// resolve(u) is the lookup sample(rng) makes of rng.uniform(): the two
// agree draw for draw, and at the column edges, where u * n rounds onto or
// just below an integer (and up to n - 1 + 1 ulp at the top), resolve
// picks what the verbatim two-array sample() formula picks for that u.
TEST(Alias, ResolveMatchesSample) {
  for (int n : {1, 3, 7, 100, 25600, 409600}) {
    const AliasSampler sampler(zipf_weights(n, 0.9));
    Rng a(77), b(77);
    for (int i = 0; i < 200'000; ++i) {
      const std::size_t want = sampler.sample(a);
      ASSERT_EQ(sampler.resolve(b.uniform()), want) << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(a(), b());  // both consumed one uniform per draw

    const TwoArrayAlias reference(sampler.weights());
    const auto reference_resolve = [&](double u) {
      const double x = u * static_cast<double>(n);
      std::size_t i = static_cast<std::size_t>(x);
      if (i >= reference.prob.size()) i = reference.prob.size() - 1;
      return (x - static_cast<double>(i)) < reference.prob[i]
                 ? i
                 : static_cast<std::size_t>(reference.alias[i]);
    };
    std::vector<double> edges = {0.0, std::nextafter(1.0, 0.0)};
    const int step = std::max(1, n / 64);
    for (int k = 1; k < n; k += step) {
      const double edge = static_cast<double>(k) / n;
      edges.insert(edges.end(), {std::nextafter(edge, 0.0), edge,
                                 std::nextafter(edge, 1.0)});
    }
    for (double u : edges) {
      const std::size_t got = sampler.resolve(u);
      ASSERT_LT(got, static_cast<std::size_t>(n));
      ASSERT_EQ(got, reference_resolve(u)) << "n=" << n << " u=" << u;
    }
  }
}

}  // namespace
}  // namespace flowsched
