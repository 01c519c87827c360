#include "workload/alias.hpp"

#include <limits>
#include <stdexcept>

#include "workload/zipf.hpp"

namespace flowsched {

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  if (weights.empty()) {
    throw std::invalid_argument("AliasSampler: empty weight vector");
  }
  if (weights.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("AliasSampler: too many weights");
  }
  double total = 0;
  for (double w : weights) {
    if (!(w >= 0)) {
      throw std::invalid_argument("AliasSampler: negative weight");
    }
    total += w;
  }
  if (!(total > 0)) throw std::invalid_argument("AliasSampler: zero total weight");
  build(weights, total);
}

AliasSampler::AliasSampler(int m, double s) : AliasSampler(zipf_weights(m, s)) {}

void AliasSampler::build(const std::vector<double>& weights, double total) {
  const std::size_t n = weights.size();
  // Vose's stable construction: scale every probability by n, then pair each
  // underfull column with an overfull one. A column's prob holds its scaled
  // mass until the column settles. Two index stacks, strictly deterministic
  // (ascending index order in, LIFO out), share one n-slot buffer: every
  // index sits in exactly one of them, small growing up from the bottom and
  // large growing down from the top.
  columns_.resize(n);
  std::vector<std::uint32_t> stacks(n);
  std::size_t small = 0;  // stacks[0, small)
  std::size_t large = n;  // stacks[large, n), top at stacks[large]
  for (std::size_t i = 0; i < n; ++i) {
    const double scaled = weights[i] / total * static_cast<double>(n);
    columns_[i] = {scaled, static_cast<std::uint32_t>(i)};
    if (scaled < 1.0) {
      stacks[small++] = static_cast<std::uint32_t>(i);
    } else {
      stacks[--large] = static_cast<std::uint32_t>(i);
    }
  }
  while (small > 0 && large < n) {
    const std::uint32_t s = stacks[--small];
    const std::uint32_t l = stacks[large];
    columns_[s].alias = l;  // column s settles at its scaled mass
    // The large column donates the mass that fills column s to 1.
    columns_[l].prob -= 1.0 - columns_[s].prob;
    if (columns_[l].prob < 1.0) {
      ++large;
      stacks[small++] = l;
    }
  }
  // Leftovers are full columns up to rounding; pin them to 1 so the column
  // never aliases (its alias already points to itself).
  for (std::size_t i = 0; i < small; ++i) columns_[stacks[i]].prob = 1.0;
  for (std::size_t i = large; i < n; ++i) columns_[stacks[i]].prob = 1.0;
}

}  // namespace flowsched
