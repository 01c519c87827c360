#include "util/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace flowsched {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // All-zero state is the single forbidden state of xoshiro; splitmix64
  // cannot produce four zero outputs in a row, but guard anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo > hi");
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % range;
  std::uint64_t draw;
  do {
    draw = (*this)();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % range);
}

double Rng::exponential(double lambda) {
  if (!(lambda > 0)) throw std::invalid_argument("exponential: lambda <= 0");
  // uniform() < 1 strictly, so 1 - u > 0 and the log is finite.
  return -std::log1p(-uniform()) / lambda;
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::size_t Rng::weighted_index(std::span<const double> weights) {
  if (weights.empty()) throw std::invalid_argument("weighted_index: empty");
  double total = 0;
  for (double w : weights) {
    if (w < 0 || !std::isfinite(w)) {
      throw std::invalid_argument("weighted_index: bad weight");
    }
    total += w;
  }
  if (!(total > 0)) throw std::invalid_argument("weighted_index: zero total");
  double x = uniform() * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0) return i;
  }
  return weights.size() - 1;
}

}  // namespace flowsched
