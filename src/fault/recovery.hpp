// Recovery policies and the per-run fault log.
//
// When a FaultPlan kills a task mid-execution the engine consults a
// RecoveryPolicy to decide *when* the task re-enters the dispatch queue and
// *how much* work it still owes. All three policies are deterministic: the
// backoff jitter is a pure function of (jitter_seed, task, attempt) on the
// dyadic grid, so the InvariantAuditor can recompute every retry instant
// exactly and flag any engine that does not respect its backoff.
//
// The FaultLog is the subsystem's ground truth: every attempt (dispatched
// segment, kill, or parked wait) is recorded, and every task ends with an
// explicit fate — completed or dropped, never silently lost.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace flowsched {

/// How a killed task re-enters the system.
enum class RecoveryKind {
  kImmediate,   ///< Requeue at the kill instant; lost work is redone.
  kBackoff,     ///< Exponential backoff with deterministic jitter; redone.
  kCheckpoint,  ///< Requeue at the kill instant; completed work is retained.
};

const char* recovery_kind_name(RecoveryKind kind);

/// Parses "immediate" / "backoff" / "checkpoint"; throws std::invalid_argument
/// on anything else.
RecoveryKind parse_recovery_kind(const std::string& name);

/// \brief Full recovery configuration. All durations are model time.
///
/// Backoff delay for the k-th kill (k = 0, 1, ...) of task i:
///   min(backoff_cap, backoff_base * 2^k) + jitter_steps(i, k) * grid
/// where jitter_steps is drawn from splitmix64(jitter_seed, i, k) in
/// [0, jitter / grid]. With jitter and base on the grid the retry instant is
/// an exact dyadic sum, reproducible by the auditor bit for bit.
struct RecoveryPolicy {
  RecoveryKind kind = RecoveryKind::kImmediate;
  int max_retries = 16;       ///< Kills tolerated before the task is dropped.
  double backoff_base = 0.5;  ///< First backoff delay (kBackoff only).
  double backoff_cap = 8.0;   ///< Delay ceiling before jitter.
  double jitter = 1.0;        ///< Max jitter amplitude (0 disables).
  double grid = 0.125;        ///< Jitter quantization step (dyadic 2^-3).
  std::uint64_t jitter_seed = 0x5eedULL;

  /// Model time at which attempt `attempt + 1` of `task` becomes eligible,
  /// given the previous attempt was killed at `kill_time`. Pure function —
  /// the auditor calls this to verify the engine.
  double retry_time(int task, int attempt, double kill_time) const;

  /// "recovery <kind> <max_retries> <base> <cap> <jitter> <jitter_seed>"
  /// (corpus directive, parsed by fault/plan_io.hpp).
  std::string str() const;
};

/// One dispatch attempt of one task. machine == -1 means the attempt found
/// the degraded eligible set empty and the task was parked until `end` (the
/// earliest recovery among its machines) before re-trying.
struct FaultAttempt {
  int task = -1;
  int attempt = 0;        ///< 0-based attempt index (0 = first dispatch).
  double scheduled = 0;   ///< Time the attempt entered the dispatch queue.
  int machine = -1;       ///< Executing machine; -1 when parked.
  double start = 0;       ///< Segment start (machine >= 0) or park begin.
  double end = 0;         ///< Completion, kill instant, or park end.
  bool killed = false;    ///< Segment ended by a crash of `machine`.

  /// Executed work in this segment (0 for parked attempts).
  double work() const { return machine >= 0 ? end - start : 0.0; }
};

/// Terminal state of a task under faults.
enum class TaskFate {
  kPending,    ///< Still queued/parked (drain_faults() not yet run).
  kCompleted,  ///< Finished; completion() is its completion time.
  kDropped,    ///< Retry budget exhausted or no machine ever recovers.
};

/// Aggregate counters over one run, cheap to merge across replicates.
struct FaultStats {
  long long attempts = 0;   ///< Dispatch attempts that reached a machine.
  long long kills = 0;      ///< Segments ended by a crash.
  long long parked = 0;     ///< Attempts that found no machine up.
  long long completed = 0;
  long long dropped = 0;
  double wasted_work = 0;   ///< Killed-segment work not retained.

  FaultStats& operator+=(const FaultStats& o);
};

/// What a drained run reports about its faults, shared by every driver that
/// turns a FaultLog into a report.
struct FaultOutcome {
  long long completed = 0;
  long long dropped = 0;
  long long parked = 0;
  /// Dispatch-queue entries beyond each task's first: every kill or park
  /// wake-up that put a task back in line.
  long long retried = 0;
  double wasted_work = 0;
};

/// \brief Append-only record of every attempt in one engine run.
class FaultLog {
 public:
  /// Registers task `task` (tasks arrive in index order).
  void begin_task(int task);

  void record(const FaultAttempt& attempt);

  /// Seals `task` with its fate; `completion` is meaningful only for
  /// kCompleted.
  void settle(int task, TaskFate fate, double completion);

  int tasks() const { return static_cast<int>(fates_.size()); }
  TaskFate fate(int task) const;
  /// Completion time of a kCompleted task; throws otherwise.
  double completion(int task) const;

  /// Credits killed-segment work that the policy will redo (the engine
  /// calls this for non-checkpoint kills).
  void add_wasted(double work) { stats_.wasted_work += work; }

  const std::vector<FaultAttempt>& attempts() const { return attempts_; }

  /// Attempts of one task, in attempt order.
  std::vector<FaultAttempt> attempts_of(int task) const;

  const FaultStats& stats() const { return stats_; }

  /// Settles a drained run for reporting: calls on_completed(task,
  /// completion) for each completed task in task order, then returns the
  /// run's counters.
  template <class OnCompleted>
  FaultOutcome outcome(OnCompleted&& on_completed) const {
    for (int task = 0; task < tasks(); ++task) {
      const auto idx = static_cast<std::size_t>(task);
      if (fates_[idx] == TaskFate::kCompleted) {
        on_completed(task, completions_[idx]);
      }
    }
    return {stats_.completed, stats_.dropped, stats_.parked,
            stats_.attempts + stats_.parked - tasks(), stats_.wasted_work};
  }

 private:
  std::vector<FaultAttempt> attempts_;
  std::vector<TaskFate> fates_;
  std::vector<double> completions_;
  FaultStats stats_;
};

}  // namespace flowsched
