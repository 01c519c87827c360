// Streaming flow-time quantiles from one log-linear histogram.
//
// Each finite sample is mapped to an order-preserving 64-bit key (its IEEE
// bits, sign-folded). The bucket index is the key's top 12 + b bits: the
// sign, the 11 exponent bits and the first b mantissa bits. Every binade is
// therefore split into 2^b equal sub-buckets, and bucketing is exact by
// construction — bit shifts only, no division and no rounding.
//
// Error guarantee: a quantile query returns the midpoint of the bucket that
// holds the order statistic of 0-based rank floor(q (n - 1)) (the lower
// neighbour of the exact regime's type-7 position), clamped to [min, max].
// For a normal order statistic x the answer is within 2^-(b+1) |x| of it;
// subnormals and zero are within 2^-1030 absolutely. Counts are integers,
// so the quantiles do not depend on the order of the samples.
//
// Memory: one std::uint64_t per bucket over the occupied index window —
// 2^b = 128 buckets (1 KiB) per binade the samples span — grown on demand
// with half its width as slack, so never more than 3x the occupied span.
// Non-finite samples get their own counters and never widen it.
//
// StreamingQuantiles bundles what the serving reports need —
// p50/p90/p99/p999 plus exact running min/max/mean — behind one add().
#pragma once

#include <cstdint>
#include <vector>

namespace flowsched {

/// The latency battery of the streaming report: the histogram quantiles
/// plus the exact extremes and the running mean (summed in arrival order,
/// so the mean is bit-identical to a batch mean over the same stream).
class StreamingQuantiles {
 public:
  /// Mantissa bits per bucket index: relative error at most 2^-(b+1).
  static constexpr int kSubBucketBits = 7;

  void add(double x);

  double mean() const;
  double max() const { return max_; }
  /// Midpoint of the bucket holding the rank-floor(q (n - 1)) sample,
  /// clamped to [min, max]; q in [0, 1]. 0 when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }
  double p999() const { return quantile(0.999); }

 private:
  void widen(std::uint64_t index);

  std::uint64_t n_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::uint64_t lo_ = 0;                // bucket index of counts_[0]
  std::vector<std::uint64_t> counts_;   // the occupied index window
  std::uint64_t neg_inf_ = 0;
  std::uint64_t pos_inf_ = 0;
  std::uint64_t nan_ = 0;               // ranked above +inf
};

}  // namespace flowsched
