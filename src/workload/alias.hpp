// Walker/Vose alias-method sampler: O(1) draws from an arbitrary discrete
// distribution (Walker 1977, Vose 1991).
//
// The inverse-CDF ZipfSampler (workload/zipf.hpp) costs O(log m) per draw
// and, more importantly for the streaming engine, a cache-hostile binary
// search over an m-entry table. The alias method precomputes, in O(m), a
// pair of tables (prob, alias) such that one uniform deviate picks a column
// i = floor(u * m) and a biased coin inside the column decides between i
// and alias[i]. Both live in one 16-byte column, so a sample reads one
// cache line, independent of m.
//
// Determinism contract: sample() consumes exactly ONE Rng::uniform() call,
// the same RNG budget as ZipfSampler::sample and KeyValueStore::sample_key,
// so swapping samplers never shifts the downstream deviate stream (the
// arrival-time and service-time draws of cluster_sim stay untouched). The
// construction itself is a deterministic function of the weights — no RNG.
//
// sample(rng) is resolve(rng.uniform()), the one sampling path. A caller
// that can draw ahead (cluster_sim draws a block of requests before
// releasing any) keeps the uniform, calls prefetch(u) so the column loads
// while it draws on, and resolves u later: the same index, and no stall on
// a table far larger than the cache.
//
// The sampled *values* differ from the inverse-CDF sampler for the same
// uniform (the methods partition [0,1) differently), but the distribution
// is exactly the same: tests/test_alias.cpp reconstructs the per-index
// probability from the tables and asserts it equals the input weights to
// ~1 ulp, and cross-checks the empirical stream against ZipfSampler with a
// chi-square-style tolerance (the documented equivalence of the two
// samplers; see docs/streaming.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace flowsched {

class AliasSampler {
 public:
  /// Builds the tables from unnormalized non-negative weights (size >= 1,
  /// positive total). O(n) time and space.
  explicit AliasSampler(std::vector<double> weights);

  /// Zipf(s) over ranks 0..m-1 — the drop-in for ZipfSampler(m, s).
  AliasSampler(int m, double s);

  /// One uniform draw, one column read. Same Rng budget as
  /// ZipfSampler::sample.
  std::size_t sample(Rng& rng) const { return resolve(rng.uniform()); }

  /// The index a draw of uniform `u` in [0, 1) maps to: sample(rng) is
  /// exactly resolve(rng.uniform()). Splitting the draw from the lookup lets
  /// a caller draw a block of uniforms first and resolve them once their
  /// columns are in cache (see prefetch).
  std::size_t resolve(double u) const {
    const double x = u * static_cast<double>(columns_.size());
    const std::size_t i = column_of(x);
    const Column& c = columns_[i];
    return (x - static_cast<double>(i)) < c.prob
               ? i
               : static_cast<std::size_t>(c.alias);
  }

  /// Hints the cache to load the column resolve(u) will read. No effect on
  /// any result.
  void prefetch(double u) const {
    __builtin_prefetch(
        &columns_[column_of(u * static_cast<double>(columns_.size()))]);
  }

  std::size_t size() const { return columns_.size(); }

  /// Normalized input weights (sums to 1), matching ZipfSampler::weights().
  const std::vector<double>& weights() const { return weights_; }

  /// Probability of drawing `i` as reconstructed from the alias tables:
  /// prob[i]/n plus the overflow mass every column aliases back to i. Used
  /// by tests to assert the tables encode exactly the input distribution.
  double table_probability(std::size_t i) const;

 private:
  // One column per index: a draw reads both fields from one cache line.
  struct Column {
    double prob;          // column-local acceptance threshold
    std::uint32_t alias;  // column-overflow target
  };

  // floor(x) for x = u * n, clamped: u * n can round up to n.
  std::size_t column_of(double x) const {
    const std::size_t i = static_cast<std::size_t>(x);
    return i < columns_.size() ? i : columns_.size() - 1;
  }

  void build();

  std::vector<double> weights_;  // normalized input
  std::vector<Column> columns_;
};

}  // namespace flowsched
