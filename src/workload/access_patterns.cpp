#include "workload/access_patterns.hpp"

#include <algorithm>
#include <stdexcept>

#include "workload/zipf.hpp"

namespace flowsched {

AccessPattern::AccessPattern(std::vector<double> weights)
    : weights_(std::move(weights)) {
  if (weights_.empty()) throw std::invalid_argument("AccessPattern: no keys");
  double total = 0;
  for (double w : weights_) {
    if (w < 0) throw std::invalid_argument("AccessPattern: negative weight");
    total += w;
  }
  if (!(total > 0)) throw std::invalid_argument("AccessPattern: zero mass");
  for (double& w : weights_) w /= total;
}

AccessPattern AccessPattern::uniform(int keys) {
  if (keys <= 0) throw std::invalid_argument("AccessPattern::uniform: keys <= 0");
  return AccessPattern(std::vector<double>(static_cast<std::size_t>(keys), 1.0));
}

AccessPattern AccessPattern::zipfian(int keys, double s) {
  return AccessPattern(zipf_weights(keys, s));
}

AccessPattern AccessPattern::latest(int keys, double s) {
  auto w = zipf_weights(keys, s);
  std::reverse(w.begin(), w.end());
  return AccessPattern(std::move(w));
}

AccessPattern AccessPattern::hotspot(int keys, double hot_set_fraction,
                                     double hot_op_fraction) {
  if (keys <= 0) throw std::invalid_argument("AccessPattern::hotspot: keys <= 0");
  if (hot_set_fraction <= 0 || hot_set_fraction > 1 || hot_op_fraction < 0 ||
      hot_op_fraction > 1) {
    throw std::invalid_argument("AccessPattern::hotspot: fractions outside (0,1]");
  }
  const int hot = std::max(1, static_cast<int>(keys * hot_set_fraction));
  const int cold = keys - hot;
  std::vector<double> w(static_cast<std::size_t>(keys));
  for (int i = 0; i < hot; ++i) {
    w[static_cast<std::size_t>(i)] = hot_op_fraction / hot;
  }
  for (int i = hot; i < keys; ++i) {
    w[static_cast<std::size_t>(i)] = cold > 0 ? (1.0 - hot_op_fraction) / cold : 0.0;
  }
  return AccessPattern(std::move(w));
}

AccessPattern AccessPattern::from_weights(std::vector<double> weights) {
  return AccessPattern(std::move(weights));
}

std::vector<double> AccessPattern::machine_popularity(int m) const {
  if (m <= 0) throw std::invalid_argument("machine_popularity: m <= 0");
  std::vector<double> pop(static_cast<std::size_t>(m), 0.0);
  for (int key = 0; key < keys(); ++key) {
    pop[static_cast<std::size_t>(key % m)] += weights_[static_cast<std::size_t>(key)];
  }
  return pop;
}

}  // namespace flowsched
