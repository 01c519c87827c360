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

namespace {

// Type-7 quantile q of n sorted values: order statistics lo and hi, and the
// weight frac of hi in a + frac * (b - a).
struct Type7 {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

Type7 type7(std::size_t n, double q) {
  if (n == 0) throw std::invalid_argument("quantile: empty input");
  if (q < 0 || q > 1) throw std::invalid_argument("quantile: q outside [0,1]");
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  return {lo, std::min(lo + 1, n - 1), pos - static_cast<double>(lo)};
}

double interpolate(double a, double b, double frac) {
  return a + frac * (b - a);
}

}  // namespace

double quantile_sorted(std::span<const double> sorted, double q) {
  const Type7 t = type7(sorted.size(), q);
  return interpolate(sorted[t.lo], sorted[t.hi], t.frac);
}

std::vector<double> select_quantiles(std::span<double> xs,
                                     std::span<const double> qs) {
  // xs[0, done) holds the `done` smallest values, and the positions an
  // earlier q selected hold their order statistics. Ascending q only ever
  // asks again for those, or for a position at or beyond done.
  std::size_t done = 0;
  const auto order_stat = [&](std::size_t k) {
    if (k >= done) {
      const auto first = xs.begin() + static_cast<std::ptrdiff_t>(done);
      if (k == done) {
        std::iter_swap(first, std::min_element(first, xs.end()));
      } else {
        std::nth_element(first, xs.begin() + static_cast<std::ptrdiff_t>(k),
                         xs.end());
      }
      done = k + 1;
    }
    return xs[k];
  };
  std::vector<double> out;
  out.reserve(qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    if (i > 0 && qs[i] < qs[i - 1]) {
      throw std::invalid_argument("select_quantiles: q not ascending");
    }
    const Type7 t = type7(xs.size(), qs[i]);
    const double a = order_stat(t.lo);
    out.push_back(interpolate(a, order_stat(t.hi), t.frac));
  }
  return out;
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
