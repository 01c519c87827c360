#include "obs/sketch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

namespace flowsched {

namespace {

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
// The index keeps the key's top 12 + b bits.
constexpr int kShift = 64 - 12 - StreamingQuantiles::kSubBucketBits;
constexpr std::uint64_t kBuckets = std::uint64_t{1} << (64 - kShift);

// Monotone in x over the finite doubles: positives above negatives, and
// the magnitude order of negatives reversed.
std::uint64_t key_of(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

// A bucket holds the doubles that share sign, exponent and the first b
// mantissa bits. The mantissa is linear within a binade, so keeping those
// bits and setting the first dropped one gives the bucket's arithmetic
// midpoint, exactly.
double midpoint(std::uint64_t index) {
  constexpr std::uint64_t kDropped = (std::uint64_t{1} << kShift) - 1;
  const std::uint64_t key = index << kShift;
  const std::uint64_t bits = (key & kSignBit) != 0 ? key & ~kSignBit : ~key;
  return std::bit_cast<double>((bits & ~kDropped) |
                               (std::uint64_t{1} << (kShift - 1)));
}

}  // namespace

void StreamingQuantiles::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  sum_ += x;
  ++n_;
  if (!std::isfinite(x)) {
    ++(std::isnan(x) ? nan_ : x < 0 ? neg_inf_ : pos_inf_);
    return;
  }
  const std::uint64_t index = key_of(x) >> kShift;
  // Unsigned wrap-around sends index < lo_ here too.
  if (index - lo_ >= counts_.size()) widen(index);
  ++counts_[index - lo_];
}

// Grows the window to cover `index`, with half the current width as slack
// on the growing side (amortised O(1) per add), clamped to the index range.
void StreamingQuantiles::widen(std::uint64_t index) {
  if (counts_.empty()) lo_ = index;
  const std::uint64_t slack = counts_.size() / 2;
  const std::uint64_t hi = lo_ + counts_.size();
  const std::uint64_t new_lo =
      index >= lo_ ? lo_ : index - std::min(index, slack);
  const std::uint64_t new_hi =
      index < hi ? hi : std::min(index + 1 + slack, kBuckets);
  std::vector<std::uint64_t> grown(new_hi - new_lo, 0);
  std::ranges::copy(counts_,
                    grown.begin() + static_cast<std::ptrdiff_t>(lo_ - new_lo));
  counts_ = std::move(grown);
  lo_ = new_lo;
}

double StreamingQuantiles::quantile(double q) const {
  if (n_ == 0) return 0.0;
  auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n_ - 1));
  if (rank < neg_inf_) return -std::numeric_limits<double>::infinity();
  rank -= neg_inf_;
  for (std::size_t j = 0; j < counts_.size(); ++j) {
    if (rank < counts_[j]) return std::clamp(midpoint(lo_ + j), min_, max_);
    rank -= counts_[j];
  }
  return rank < pos_inf_ ? std::numeric_limits<double>::infinity()
                         : std::numeric_limits<double>::quiet_NaN();
}

double StreamingQuantiles::mean() const {
  return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_);
}

}  // namespace flowsched
