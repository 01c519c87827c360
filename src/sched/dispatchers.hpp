// Immediate-dispatch online algorithms.
//
// A Dispatcher sees tasks one by one, in release order, and must commit each
// task to a machine immediately (the paper's Immediate Dispatch property:
// r_i <= rho_i < r_i + eps). The engine (sched/engine.hpp) owns the machine
// state; the dispatcher only picks the machine, so the same machine-state
// bookkeeping is shared by every policy and cannot drift between them.
//
// Implemented policies:
//   EftDispatcher         — Algorithm 2 with Equation (2) restricted ties;
//                           EFT-Min / EFT-Max / EFT-Rand via the tie-break.
//   RandomEligible        — uniform choice in M_i (no load information).
//   LeastLoadedDispatcher — min total allocated work in M_i (differs from
//                           EFT only when machines idle after their queue).
//   JsqDispatcher         — join-shortest-queue: fewest unfinished tasks at
//                           the release instant, the classic load balancer.
//   RoundRobinDispatcher  — cycles through each distinct processing set.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/instance.hpp"
#include "sched/tiebreak.hpp"

namespace flowsched {

/// Read-only view of the engine's machine state offered to dispatchers.
struct MachineState {
  /// C_{j,i-1}: completion time of everything already assigned to machine j.
  std::span<const double> completion;
  /// Total work assigned to machine j so far.
  std::span<const double> load;
  /// Number of tasks assigned to machine j so far.
  std::span<const int> count;
  /// Number of tasks assigned to j and not finished at the release instant
  /// (a task finishing exactly then counts as finished). Current for every
  /// machine: the engine core settles the finished segments of every
  /// machine before each dispatch (sched/streaming.hpp).
  std::span<const int> queued;
  /// Global index of the task being dispatched (-1 when the engine does not
  /// track one). Keys the counter-based per-task RNG streams of randomized
  /// dispatchers (sched/tiebreak.hpp per_task_seed).
  long long task_id = -1;
};

class Dispatcher {
 public:
  virtual ~Dispatcher() = default;

  /// Called once before a run; m is the machine count.
  virtual void reset(int m) = 0;

  /// Chooses the machine for `t` (must be in t.eligible). Called in release
  /// order; the engine applies the assignment afterwards.
  virtual int dispatch(const Task& t, const MachineState& state) = 0;

  /// True when dispatch() reads MachineState::queued. Declarative only: the
  /// engine core keeps queue depths current for every dispatcher.
  virtual bool needs_queue_depths() const { return false; }

  virtual std::string name() const = 0;
};

/// Earliest Finish Time (Algorithm 2). With unrestricted sets it is
/// equivalent to FIFO (Proposition 1). Min and Max scan M_i once in
/// tie-break order and stop at the first machine idle at r_i
/// (docs/streaming.md); Rand collects all of U'_i.
class EftDispatcher final : public Dispatcher {
 public:
  /// `counter_rng` switches the Rand tie-break to counter-based per-task
  /// draws (per_task_seed) instead of one shared stream — opt-in because it
  /// changes which machine a given seed picks. No effect on Min/Max.
  explicit EftDispatcher(TieBreakKind kind, std::uint64_t seed = 0,
                         bool counter_rng = false);

  void reset(int m) override;
  int dispatch(const Task& t, const MachineState& state) override;
  std::string name() const override;

 private:
  TieBreak tie_;
  std::vector<int> candidates_;  // U'_i for Rand, reused across dispatches
};

class RandomEligibleDispatcher final : public Dispatcher {
 public:
  /// `counter_rng`: draw from per_task_seed(seed, task_id) instead of one
  /// shared stream (see EftDispatcher).
  explicit RandomEligibleDispatcher(std::uint64_t seed = 0,
                                    bool counter_rng = false);

  void reset(int m) override;
  int dispatch(const Task& t, const MachineState& state) override;
  std::string name() const override { return "RandomEligible"; }

 private:
  Rng rng_;
  std::uint64_t seed_;
  bool counter_rng_;
};

class LeastLoadedDispatcher final : public Dispatcher {
 public:
  explicit LeastLoadedDispatcher(TieBreakKind kind, std::uint64_t seed = 0);

  void reset(int m) override;
  int dispatch(const Task& t, const MachineState& state) override;
  std::string name() const override;

 private:
  TieBreak tie_;
  std::vector<int> candidates_;  // reused across dispatches (hot path)
};

class JsqDispatcher final : public Dispatcher {
 public:
  explicit JsqDispatcher(TieBreakKind kind, std::uint64_t seed = 0);

  void reset(int m) override;
  int dispatch(const Task& t, const MachineState& state) override;
  bool needs_queue_depths() const override { return true; }
  std::string name() const override;

 private:
  TieBreak tie_;
  std::vector<int> candidates_;  // reused across dispatches (hot path)
};

class RoundRobinDispatcher final : public Dispatcher {
 public:
  RoundRobinDispatcher() = default;

  void reset(int m) override;
  int dispatch(const Task& t, const MachineState& state) override;
  std::string name() const override { return "RoundRobin"; }

 private:
  // Keyed on the processing set's cached hash (O(1) per dispatch); the
  // ProcSet key is only copied once, when a set is first seen.
  std::unordered_map<ProcSet, std::size_t, ProcSetHash> next_;
};

/// Power of d choices (Mitzenmacher): sample d random machines from M_i and
/// take the one finishing earliest — the classic cheap approximation of
/// EFT/JSQ replica selection used by real load balancers (d = 2 gets most
/// of the benefit at a fraction of the probing cost). Falls back to the
/// whole set when |M_i| <= d.
class PowerOfDChoicesDispatcher final : public Dispatcher {
 public:
  /// `counter_rng`: sample the d probes from per_task_seed(seed, task_id)
  /// instead of one shared stream (see EftDispatcher).
  explicit PowerOfDChoicesDispatcher(int d = 2, std::uint64_t seed = 0,
                                     bool counter_rng = false);

  void reset(int m) override;
  int dispatch(const Task& t, const MachineState& state) override;
  std::string name() const override;

 private:
  int d_;
  Rng rng_;
  std::uint64_t seed_;
  bool counter_rng_;
};

/// Factory helpers for the three named EFT variants of the paper.
std::unique_ptr<Dispatcher> make_eft_min();
std::unique_ptr<Dispatcher> make_eft_max();
std::unique_ptr<Dispatcher> make_eft_rand(std::uint64_t seed);

}  // namespace flowsched
