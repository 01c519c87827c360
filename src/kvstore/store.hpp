// A replicated key-value store model (Sections 1, 3, 7).
//
// Keys are partitioned across m servers (round-robin placement, the effect
// of hash partitioning); each key's primary owner replicates it on the
// replica set I_k(owner) given by the replication strategy (overlapping
// ring à la Dynamo/Cassandra, or disjoint blocks). Key popularity follows a
// Zipf law over key ranks, optionally permuted so the hot keys land on
// random servers — the key-level refinement of the paper's machine-level
// popularity model (the induced machine popularity P(E_j) is exposed for
// the LP analysis).
#pragma once

#include <optional>
#include <vector>

#include "model/procset.hpp"
#include "util/rng.hpp"
#include "workload/alias.hpp"
#include "workload/replication.hpp"
#include "workload/zipf.hpp"

namespace flowsched {

struct StoreConfig {
  int m = 15;               ///< Servers.
  int keys = 1500;          ///< Distinct keys.
  double zipf_s = 1.0;      ///< Key popularity skew (0 = uniform).
  ReplicationStrategy strategy = ReplicationStrategy::kOverlapping;
  int k = 3;                ///< Replication factor.
  bool shuffle_key_ranks = true;  ///< Permute popularity over keys.
};

class KeyValueStore {
 public:
  /// Builds the key placement; consumes `rng` for the popularity shuffle.
  KeyValueStore(const StoreConfig& config, Rng& rng);

  /// Explicit key popularity (e.g. an AccessPattern's weights); must have
  /// config.keys entries. config.zipf_s / shuffle_key_ranks are ignored.
  KeyValueStore(const StoreConfig& config, std::vector<double> key_popularity);

  const StoreConfig& config() const { return config_; }
  /// Primary owner of `key`: key % m (round-robin placement). Throws
  /// std::out_of_range unless 0 <= key < keys.
  int owner(int key) const {
    if (key < 0 || key >= config_.keys) throw_key_range(key);
    return key % config_.m;
  }
  /// I_k(owner(key)); the same range check as owner().
  const ProcSet& replicas_of_key(int key) const {
    return replica_by_owner_[static_cast<std::size_t>(owner(key))];
  }

  /// \brief Draws a key according to its popularity.
  ///
  /// O(1) via the Walker/Vose alias tables (workload/alias.hpp); exactly one
  /// Rng::uniform() per draw — the same deviate budget as the previous
  /// inverse-CDF lookup, so the arrival/service draws that follow each key
  /// in cluster_sim read the same stream positions as before. Equal to
  /// resolve_key(rng.uniform()).
  int sample_key(Rng& rng) const {
    return static_cast<int>(key_sampler_->sample(rng));
  }

  /// The key a draw of uniform `u` in [0, 1) selects
  /// (AliasSampler::resolve). cluster_sim draws a block of uniforms, then
  /// resolves them, so a key's alias column can be fetched while the
  /// requests before it are still being drawn.
  int resolve_key(double u) const {
    return static_cast<int>(key_sampler_->resolve(u));
  }

  /// Hints the cache to load the alias column resolve_key(u) will read.
  void prefetch_key(double u) const { key_sampler_->prefetch(u); }

  /// Induced machine popularity P(E_j): total popularity of keys owned by
  /// each server. Sums to 1.
  const std::vector<double>& machine_popularity() const {
    return machine_popularity_;
  }

 private:
  [[noreturn]] void throw_key_range(int key) const;

  StoreConfig config_;
  std::vector<double> key_popularity_;  ///< Per key, sums to 1.
  std::optional<AliasSampler> key_sampler_;  ///< Built in the ctor body.
  std::vector<ProcSet> replica_by_owner_;
  std::vector<double> machine_popularity_;
};

}  // namespace flowsched
