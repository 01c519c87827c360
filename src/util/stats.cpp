#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace flowsched {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double OnlineStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::min() const { return n_ == 0 ? 0.0 : min_; }

double OnlineStats::max() const { return n_ == 0 ? 0.0 : max_; }

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile: empty input");
  if (q < 0 || q > 1) throw std::invalid_argument("quantile: q outside [0,1]");
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double quantile(std::span<const double> xs, double q) {
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double mu = mean(xs);
  double m2 = 0;
  for (double x : xs) m2 += (x - mu) * (x - mu);
  return std::sqrt(m2 / static_cast<double>(xs.size() - 1));
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (!(lo < hi)) throw std::invalid_argument("Histogram: lo >= hi");
  if (bins == 0) throw std::invalid_argument("Histogram: zero bins");
}

void Histogram::add(double x) {
  const double t = (x - lo_) / (hi_ - lo_);
  auto b = static_cast<std::ptrdiff_t>(t * static_cast<double>(counts_.size()));
  b = std::clamp<std::ptrdiff_t>(b, 0,
                                 static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(b)];
  ++total_;
}

double Histogram::bin_lo(std::size_t b) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(b) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t b) const { return bin_lo(b + 1); }

std::string Histogram::render(std::size_t width) const {
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const auto bar = counts_[b] * width / peak;
    out << "[" << bin_lo(b) << ", " << bin_hi(b) << ") "
        << std::string(bar, '#') << " " << counts_[b] << "\n";
  }
  return out.str();
}

}  // namespace flowsched
