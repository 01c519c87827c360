// Descriptive statistics used by the benchmark harnesses and the key-value
// store latency tracker: mean, standard deviation and order statistics
// (median / arbitrary quantiles).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace flowsched {

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

}  // namespace flowsched
