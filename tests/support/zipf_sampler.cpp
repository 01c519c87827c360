#include "support/zipf_sampler.hpp"

#include <algorithm>

#include "workload/zipf.hpp"

namespace flowsched {

ZipfSampler::ZipfSampler(int m, double s) : weights_(zipf_weights(m, s)) {
  cdf_.resize(weights_.size());
  double acc = 0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    acc += weights_[i];
    cdf_[i] = acc;
  }
  cdf_.back() = 1.0;  // guard against rounding
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

}  // namespace flowsched
