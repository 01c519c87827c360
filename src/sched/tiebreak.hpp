// Tie-break policies (the paper's BreakTie).
//
// Both FIFO and EFT reduce their choice to picking one machine out of a
// candidate set U_i (machines tied for the earliest finish / idle at the
// same instant). The paper studies three policies:
//   Min  — lowest index (EFT-Min, Algorithm 3),
//   Max  — highest index (EFT-Max, Section 7.4),
//   Rand — uniformly random among candidates (EFT-Rand, Algorithm 4); every
//          candidate has positive probability, satisfying the theta > 0
//          condition of Theorem 9.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "util/rng.hpp"

namespace flowsched {

enum class TieBreakKind { kMin, kMax, kRand };

std::string to_string(TieBreakKind kind);

/// Seed of the counter-based per-task RNG stream: a pure function of
/// (seed, task_id), so any number of independently constructed dispatchers
/// make the *same* random choice for the same task. This is what lets the
/// sharded engine's per-shard dispatcher replicas stay bit-equal to the
/// single-queue engine for randomized policies (docs/sharding.md).
std::uint64_t per_task_seed(std::uint64_t seed, long long task_id);

/// Stateful tie-break policy; Rand consumes the embedded RNG stream, so a
/// fixed seed gives a reproducible run. With `counter_based`, Rand instead
/// derives one draw per task from per_task_seed(seed, task_id) — no stream
/// state, so replicated dispatchers agree (see per_task_seed).
class TieBreak {
 public:
  explicit TieBreak(TieBreakKind kind, std::uint64_t seed = 0,
                    bool counter_based = false);

  TieBreakKind kind() const { return kind_; }

  /// Picks one machine from a non-empty candidate list (ascending indices).
  /// Stream mode only (counter-based requires the task id).
  int choose(std::span<const int> candidates);

  /// As above; `task_id` keys the counter-based draw (ignored in stream
  /// mode, so call sites can pass it unconditionally).
  int choose(std::span<const int> candidates, long long task_id);

 private:
  TieBreakKind kind_;
  Rng rng_;
  std::uint64_t seed_;
  bool counter_based_;
};

}  // namespace flowsched
