#include "kvstore/ring.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace flowsched {

HashRing::HashRing(int m, int vnodes, std::uint64_t seed)
    : m_(m) {
  if (m <= 0) throw std::invalid_argument("HashRing: m <= 0");
  if (vnodes <= 0) throw std::invalid_argument("HashRing: vnodes <= 0");
  Rng rng(seed);
  tokens_.reserve(static_cast<std::size_t>(m) * static_cast<std::size_t>(vnodes));
  for (int machine = 0; machine < m; ++machine) {
    for (int v = 0; v < vnodes; ++v) {
      tokens_.push_back(Token{rng(), machine});
    }
  }
  std::sort(tokens_.begin(), tokens_.end(),
            [](const Token& a, const Token& b) { return a.position < b.position; });
  // Astronomically unlikely, but duplicate tokens would make ownership
  // ambiguous; nudge any collisions apart deterministically.
  for (std::size_t i = 1; i < tokens_.size(); ++i) {
    if (tokens_[i].position <= tokens_[i - 1].position) {
      tokens_[i].position = tokens_[i - 1].position + 1;
    }
  }
}

std::uint64_t HashRing::hash_key(std::uint64_t key) {
  std::uint64_t z = key + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

ProcSet HashRing::replicas_at(std::uint64_t point, int k) const {
  if (k < 1 || k > m_) throw std::invalid_argument("HashRing: need 1 <= k <= m");
  const auto start = std::lower_bound(
      tokens_.begin(), tokens_.end(), point,
      [](const Token& t, std::uint64_t p) { return t.position < p; });
  std::size_t idx = static_cast<std::size_t>(start - tokens_.begin()) % tokens_.size();
  std::vector<int> machines;
  std::vector<bool> seen(static_cast<std::size_t>(m_), false);
  for (std::size_t walked = 0;
       machines.size() < static_cast<std::size_t>(k) && walked < tokens_.size();
       ++walked) {
    const int machine = tokens_[idx].machine;
    if (!seen[static_cast<std::size_t>(machine)]) {
      seen[static_cast<std::size_t>(machine)] = true;
      machines.push_back(machine);
    }
    idx = (idx + 1) % tokens_.size();
  }
  return ProcSet(std::move(machines));
}

std::vector<double> HashRing::ownership() const {
  std::vector<double> arcs(static_cast<std::size_t>(m_), 0.0);
  constexpr double kRing = 18446744073709551616.0;  // 2^64
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    // The arc ENDING at token i (exclusive of the previous token, inclusive
    // of this one) belongs to token i's machine.
    const std::uint64_t hi = tokens_[i].position;
    const std::uint64_t lo = i == 0 ? tokens_.back().position : tokens_[i - 1].position;
    const double arc = i == 0
                           ? static_cast<double>(hi) +
                                 (kRing - static_cast<double>(lo))
                           : static_cast<double>(hi - lo);
    arcs[static_cast<std::size_t>(tokens_[i].machine)] += arc / kRing;
  }
  return arcs;
}

}  // namespace flowsched
