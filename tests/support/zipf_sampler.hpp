// Inverse-CDF Zipf sampler: the reference the alias sampler
// (workload/alias.hpp) is checked against. Both must draw the same
// distribution; the tests compare their empirical frequencies with a
// chi-square test.
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace flowsched {

/// Sampler over ranks 0..m-1 with Zipf(s) probabilities (0-based rank 0 is
/// the most popular). Uses inverse-CDF lookup, O(log m) per draw.
class ZipfSampler {
 public:
  ZipfSampler(int m, double s);

  std::size_t sample(Rng& rng) const;
  const std::vector<double>& weights() const { return weights_; }

 private:
  std::vector<double> weights_;
  std::vector<double> cdf_;
};

}  // namespace flowsched
