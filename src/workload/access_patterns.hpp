// Key access patterns beyond plain Zipf — the standard workload shapes of
// key-value store benchmarking (YCSB): uniform, zipfian, latest-biased and
// hotspot. Each pattern is an explicit probability mass function over the
// key space, so it can both drive samplers and feed the LP max-load
// analysis through the induced machine popularity.
#pragma once

#include <string>
#include <vector>

namespace flowsched {

class AccessPattern {
 public:
  /// Every key equally likely.
  static AccessPattern uniform(int keys);

  /// Zipf(s) over key ids (key 0 the hottest).
  static AccessPattern zipfian(int keys, double s);

  /// Latest-biased: Zipf(s) over *recency* — the highest key id (the most
  /// recently inserted record) is the hottest.
  static AccessPattern latest(int keys, double s);

  /// Hotspot: `hot_op_fraction` of the operations hit the first
  /// `hot_set_fraction` of the keys (uniformly within each region).
  static AccessPattern hotspot(int keys, double hot_set_fraction,
                               double hot_op_fraction);

  /// Arbitrary non-negative weights (normalized internally).
  static AccessPattern from_weights(std::vector<double> weights);

  int keys() const { return static_cast<int>(weights_.size()); }
  const std::vector<double>& weights() const { return weights_; }

  /// Machine popularity P(E_j) induced by round-robin key placement on m
  /// machines (owner of key i = i mod m).
  std::vector<double> machine_popularity(int m) const;

 private:
  explicit AccessPattern(std::vector<double> weights);

  std::vector<double> weights_;
};

}  // namespace flowsched
