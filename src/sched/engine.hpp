// Online engine for immediate-dispatch algorithms: the decision core plus
// retention.
//
// Every release is decided by the StreamingEngine core (sched/streaming.hpp):
// validation, settling finished segments, the (possibly censored) policy
// view, dispatch, setup charging, and the task events. OnlineEngine adds what
// the core deliberately forgets — every task, its assignment and its setup,
// for snapshots, oracles, audits and adversaries — plus machine busy/idle
// narration and the fault layer. It is usable in two modes:
//
//  * batch: run_dispatcher(instance, dispatcher) replays a whole instance;
//  * incremental: adaptive adversaries (Section 6) release tasks one at a
//    time, observe the assignment the algorithm is now committed to, and
//    craft the next release accordingly — exactly the information an
//    adversary is allowed to use against an immediate-dispatch algorithm.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "model/instance.hpp"
#include "model/schedule.hpp"
#include "obs/observer.hpp"
#include "sched/calendar.hpp"
#include "sched/dispatchers.hpp"
#include "sched/streaming.hpp"

namespace flowsched {

class OnlineEngine {
 public:
  /// The dispatcher is borrowed (and reset); it must outlive the engine.
  OnlineEngine(int m, Dispatcher& dispatcher);

  int m() const { return core_.m(); }
  int released() const { return static_cast<int>(tasks_.size()); }

  /// Releases one task; releases must be non-decreasing. Returns the
  /// (machine, start) assignment the algorithm committed to.
  Assignment release(Task task);

  /// \brief Switches the core into non-clairvoyant mode
  /// (StreamingEngine::set_clairvoyance, docs/scenarios.md). Must be called
  /// before the first release; incompatible with fault injection.
  void set_clairvoyance(Clairvoyance c, double setup = 0.0);
  Clairvoyance clairvoyance() const { return core_.clairvoyance(); }
  double setup_time() const { return core_.setup_time(); }

  /// C_{j, released()}: machine completion frontier.
  const std::vector<double>& completions() const { return core_.completions(); }

  const std::vector<Task>& tasks() const { return tasks_; }
  int machine_of(int i) const { return assignments_.at(static_cast<std::size_t>(i)).machine; }
  double start_of(int i) const { return assignments_.at(static_cast<std::size_t>(i)).start; }
  double completion_of(int i) const;

  /// Number of tasks allocated to machine j so far.
  int count_of(int j) const { return core_.counts().at(static_cast<std::size_t>(j)); }

  /// Profile w_t(j) = max(0, C_j - t) over everything released so far.
  std::vector<double> profile(double t) const;

  /// Self-contained schedule of everything released so far (owns a copy of
  /// the instance). Validates by construction order, not re-checked here.
  Schedule snapshot() const;

  /// \brief Attaches a borrowed event sink (nullptr detaches).
  ///
  /// From the next release() on, the engine narrates task released /
  /// dispatched / started / completed events and machine busy/idle
  /// transitions to the observer (see obs/observer.hpp for timestamp
  /// semantics). With no observer attached, every emission site is a single
  /// null check — the engine's hot path is unchanged from the
  /// pre-observability code (asserted by tests/test_obs.cpp).
  ///
  /// The engine emits only per-release events; the run brackets
  /// (on_run_begin / on_run_end) belong to the driver — run_dispatcher()
  /// handles them, incremental users (adversaries, cluster_sim) call them
  /// around their release loops and finish_observation() at the end.
  void set_observer(SchedObserver* observer) { core_.set_observer(observer); }
  SchedObserver* observer() const { return core_.observer_; }

  /// \brief Emits the trailing machine-idle transitions.
  ///
  /// Machines still busy at their completion frontier go idle there; call
  /// once, after the last release (idempotent per attachment). Does not
  /// emit on_run_end — that stays with the driver, which knows the
  /// makespan it wants to report.
  void finish_observation();

  // --- Fault injection (src/fault/, docs/faults.md) ----------------------

  /// \brief Attaches a borrowed availability plan (nullptr detaches).
  ///
  /// Must be called before the first release; the plan must cover exactly
  /// m machines and outlive the engine. With a plan attached the engine
  /// runs its fault path: dispatchers see the degraded eligible set
  /// M_i ∩ up(t), a task whose machine crashes mid-segment is killed at
  /// the crash instant and requeued per `recovery`, and a task whose
  /// degraded set is empty is parked until the earliest recovery among its
  /// machines (dropped — never silently lost — when no machine ever
  /// recovers or the retry budget is exhausted). With no plan attached
  /// (the default) release() is the exact pre-fault code path: one
  /// predictable null check, same pattern as the observer layer.
  ///
  /// Fault-mode semantics changes, all documented in docs/faults.md:
  /// completion_of() reads the fault log (throws for non-completed tasks),
  /// snapshot() is unavailable, and the observer stream carries task
  /// events for *successful* attempts only (no machine busy/idle
  /// transitions — segment-level occupancy lives in fault_log()).
  void set_faults(const FaultPlan* plan, RecoveryPolicy recovery = {});
  bool faults_active() const { return fault_plan_ != nullptr; }

  /// \brief Processes every queued retry/park wake-up (call after the last
  /// release; model time runs to +infinity). After this, every released
  /// task has a terminal fate in fault_log(). Fault mode only.
  void drain_faults();

  /// Ground-truth attempt log of the current fault run. Fault mode only.
  const FaultLog& fault_log() const;

  /// \brief Testing backdoor: dispatch on the *undegraded* eligible set and
  /// run segments straight through down intervals. This is the planted bug
  /// the fuzzer's --inject-fault-bug campaign must catch via the
  /// [fault-downtime] audit; never enable it outside tests.
  void set_unsafe_ignore_downtime(bool v) { ignore_downtime_ = v; }

  /// Testing backdoor: StreamingEngine::set_unsafe_nc_leak on the core.
  void set_unsafe_nc_leak(bool v) { core_.set_unsafe_nc_leak(v); }

 private:
  Assignment release_faulty(Task task);
  void process_pending(double until);
  void dispatch_attempt(int task, int attempt, double now, double remaining);

  // The decision core; declared first so a bad m throws before any
  // retention state is sized.
  StreamingEngine core_;
  std::vector<Task> tasks_;
  std::vector<Assignment> assignments_;
  std::vector<double> setups_;  // per task, setup charged before it (nc only)
  // Machines whose busy interval is still open (for finish_observation).
  std::vector<bool> observed_busy_;

  // Fault state. A queued retry (kill) or wake-up (park) of one task; the
  // calendar queue (sched/calendar.hpp) pops in ascending (time, insertion
  // seq), so equal-time retries dispatch in creation order — the exact
  // ordering the previous std::priority_queue implemented, deterministic at
  // any thread count because the engine itself is single-threaded per
  // replicate.
  struct PendingRetry {
    int task = -1;
    int attempt = 0;
    double remaining = 0;
  };
  const FaultPlan* fault_plan_ = nullptr;  // borrowed; null = faults off
  FaultPlan::Cursor availability_;         // the attempts' window on it
  RecoveryPolicy recovery_;
  std::unique_ptr<FaultLog> fault_log_;
  CalendarQueue<PendingRetry> pending_;
  // dispatch_attempt's dispatcher view, reused across attempts: it shares
  // M_i when every member is up and holds a built M_i ∩ up(t) otherwise.
  Task probe_;
  std::vector<int> up_buffer_;  // reused degraded-set scratch
  bool ignore_downtime_ = false;
};

/// Replays a full instance through `dispatcher` and returns the schedule
/// (non-owning: references `inst`).
Schedule run_dispatcher(const Instance& inst, Dispatcher& dispatcher);

/// As above, narrating the run to `observer` (run brackets included). The
/// optional `tag` attributes the run to a sweep replicate (obs/observer.hpp).
Schedule run_dispatcher(const Instance& inst, Dispatcher& dispatcher,
                        SchedObserver& observer, const RunTag& tag = {});

/// \brief Replays a full instance through `dispatcher` under `plan` and
/// drains all retries, so every task ends with a terminal fate.
///
/// Returns the engine itself — the fault log, fates, and per-task outcomes
/// are the result of a fault run, not a Schedule. When `observer` is
/// non-null the run brackets are emitted around the release loop
/// (on_run_end reports the completion-frontier makespan). `dispatcher` and
/// `plan` are borrowed and must outlive the returned engine.
OnlineEngine run_dispatcher_faulty(const Instance& inst, Dispatcher& dispatcher,
                                   const FaultPlan& plan,
                                   const RecoveryPolicy& recovery,
                                   SchedObserver* observer = nullptr,
                                   const RunTag& tag = {},
                                   bool unsafe_ignore_downtime = false);

}  // namespace flowsched
