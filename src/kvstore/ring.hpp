// Consistent-hash ring with virtual nodes — the placement substrate of
// Dynamo/Cassandra that the paper's fixed-interval model abstracts.
//
// Each machine owns `vnodes` random tokens on a 64-bit ring; a key hashes
// to a point and is owned by the machine of the next token clockwise
// (its *primary*). Replication walks further clockwise collecting the next
// k-1 DISTINCT machines (the Dynamo preference list). With one vnode per
// machine, ownership arcs are wildly uneven (the classic consistent-hashing
// imbalance); more vnodes concentrate ownership around 1/m. The induced
// *ownership popularity* feeds the paper's LP analysis, quantifying how
// placement imbalance alone — before any key-popularity skew — erodes the
// sustainable load (bench_ext_ring).
#pragma once

#include <cstdint>
#include <vector>

#include "model/procset.hpp"

namespace flowsched {

class HashRing {
 public:
  /// Builds the ring with `vnodes` random tokens per machine.
  HashRing(int m, int vnodes, std::uint64_t seed);

  /// Stable 64-bit hash of a key id (splitmix64 finalizer).
  static std::uint64_t hash_key(std::uint64_t key);

  /// The preference list: the first k distinct machines clockwise from
  /// `point`. Requires 1 <= k <= m.
  ProcSet replicas_at(std::uint64_t point, int k) const;
  ProcSet replicas_of_key(std::uint64_t key, int k) const {
    return replicas_at(hash_key(key), k);
  }

  /// Fraction of the hash space each machine primarily owns (sums to 1).
  /// Under uniformly popular keys this IS the machine popularity P(E_j).
  std::vector<double> ownership() const;

 private:
  struct Token {
    std::uint64_t position;
    int machine;
  };

  int m_;
  std::vector<Token> tokens_;  ///< Sorted by position.
};

}  // namespace flowsched
