// Descriptive statistics used by the benchmark harnesses and the key-value
// store latency tracker: streaming moments (Welford), order statistics
// (median / arbitrary quantiles), and fixed-bin histograms.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace flowsched {

/// Streaming mean/variance accumulator (Welford's algorithm).
/// Numerically stable; O(1) memory; does not retain samples.
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 when fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs);

/// Median (linear interpolation between middle elements for even sizes).
/// Throws std::invalid_argument on empty input.
double median(std::span<const double> xs);

/// Quantile q in [0, 1] with linear interpolation (type-7, the R/numpy
/// default). Throws std::invalid_argument on empty input or q outside [0,1].
double quantile(std::span<const double> xs, double q);

/// quantile() on data already sorted ascending: no copy, no sort, so one
/// sort serves several quantiles. Same interpolation, same throws.
double quantile_sorted(std::span<const double> sorted, double q);

/// quantile() at each q of `qs` (ascending), equal bit for bit to sorting xs
/// and calling quantile_sorted, without the sort: a type-7 quantile reads
/// only order statistics lo = floor(q (n-1)) and lo + 1, so each lo is
/// selected with nth_element on the suffix the previous q left, and lo + 1
/// is the minimum of what remains. Permutes xs. Throws like quantile(), and
/// std::invalid_argument on a descending q.
std::vector<double> select_quantiles(std::span<double> xs,
                                     std::span<const double> qs);

/// Sample standard deviation (n-1); 0 when fewer than 2 samples.
double stddev(std::span<const double> xs);

/// Equal-width histogram over [lo, hi] with `bins` bins; values outside the
/// range are clamped into the boundary bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t total() const { return total_; }
  std::size_t bin_count(std::size_t b) const { return counts_.at(b); }
  std::size_t bins() const { return counts_.size(); }
  double bin_lo(std::size_t b) const;
  double bin_hi(std::size_t b) const;

  /// Multi-line ASCII rendering, one row per bin, bar scaled to `width`.
  std::string render(std::size_t width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace flowsched
