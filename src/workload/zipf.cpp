#include "workload/zipf.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace flowsched {

double generalized_harmonic(int m, double s) {
  if (m <= 0) throw std::invalid_argument("generalized_harmonic: m <= 0");
  double h = 0;
  for (int j = 1; j <= m; ++j) h += std::pow(static_cast<double>(j), -s);
  return h;
}

std::vector<double> zipf_weights(int m, double s) {
  if (!(s >= 0)) throw std::invalid_argument("zipf_weights: need s >= 0");
  const double h = generalized_harmonic(m, s);
  std::vector<double> w(static_cast<std::size_t>(m));
  for (int j = 1; j <= m; ++j) {
    w[static_cast<std::size_t>(j - 1)] = std::pow(static_cast<double>(j), -s) / h;
  }
  return w;
}

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
