// Deterministic, seedable random number generation.
//
// All stochastic components of the library (workload generators, shuffled
// popularity permutations, the Rand tie-break of EFT-Rand) draw from this
// engine so that every experiment is reproducible from a single 64-bit seed.
//
// The engine is xoshiro256** (Blackman & Vigna), seeded through splitmix64,
// which is the recommended way to expand a small seed into the 256-bit
// xoshiro state.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace flowsched {

/// xoshiro256** pseudo-random generator with convenience sampling methods.
///
/// The methods below avoid `<random>` to guarantee identical streams across
/// standard libraries.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit output.
  result_type operator()();

  /// Uniform double in [0, 1). 53 bits of randomness.
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential variate with rate `lambda` (> 0); mean 1/lambda.
  double exponential(double lambda);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Index sampled from unnormalized non-negative weights (size >= 1).
  std::size_t weighted_index(std::span<const double> weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace flowsched
