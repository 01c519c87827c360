// Online engine for immediate-dispatch algorithms: the decision core plus
// retention.
//
// Every release is decided by the StreamingEngine core (sched/streaming.hpp):
// validation, settling finished segments, the (possibly censored) policy
// view, dispatch, setup charging, the task and machine busy/idle events,
// and the fault layer. OnlineEngine adds only what the core deliberately
// forgets — every task, its assignment and its setup, for snapshots,
// oracles, audits and adversaries — and, in fault mode, a FaultLog it
// attaches to the core, which records every attempt and fate. It is usable
// in two modes:
//
//  * batch: run_dispatcher(instance, dispatcher) replays a whole instance;
//  * incremental: adaptive adversaries (Section 6) release tasks one at a
//    time, observe the assignment the algorithm is now committed to, and
//    craft the next release accordingly — exactly the information an
//    adversary is allowed to use against an immediate-dispatch algorithm.
//
// Drivers that read nothing per task (the cluster simulator, the adaptive
// control loop) drive the core directly, in O(m + backlog) memory.
#pragma once

#include <memory>
#include <vector>

#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "model/instance.hpp"
#include "model/schedule.hpp"
#include "obs/observer.hpp"
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
  /// (machine, start) assignment the algorithm committed to (under faults:
  /// StreamingEngine::release's fault-mode return).
  Assignment release(Task task);

  /// \brief Switches the core into non-clairvoyant mode
  /// (StreamingEngine::set_clairvoyance, docs/scenarios.md). Must be called
  /// before the first release; incompatible with fault injection.
  void set_clairvoyance(Clairvoyance c, double setup = 0.0) {
    core_.set_clairvoyance(c, setup);
  }
  Clairvoyance clairvoyance() const { return core_.clairvoyance(); }
  double setup_time() const { return core_.setup_time(); }

  /// C_{j, released()}: machine completion frontier.
  const std::vector<double>& completions() const { return core_.completions(); }

  const std::vector<Task>& tasks() const { return tasks_; }
  int machine_of(int i) const { return assignment_of(i).machine; }
  double start_of(int i) const { return assignment_of(i).start; }
  double completion_of(int i) const;

  /// Number of tasks allocated to machine j so far.
  int count_of(int j) const { return core_.counts().at(static_cast<std::size_t>(j)); }

  /// Profile w_t(j) = max(0, C_j - t) over everything released so far.
  std::vector<double> profile(double t) const { return core_.profile(t); }

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
  /// handles them, incremental users (adversaries) call them around their
  /// release loops and finish_observation() at the end.
  void set_observer(SchedObserver* observer) {
    core_.set_observer(observer);
  }

  /// StreamingEngine::finish_observation on the core.
  void finish_observation() { core_.finish_observation(); }

  // --- Fault injection (src/fault/, docs/faults.md) ----------------------

  /// \brief StreamingEngine::set_faults on the core, plus an attached
  /// FaultLog that records every attempt and fate of the run.
  ///
  /// Fault-mode semantics changes, all documented in docs/faults.md:
  /// completion_of() reads the fault log (throws for non-completed tasks),
  /// machine_of() / start_of() give the completing segment ((-1, -1) until
  /// a task completes), snapshot() is unavailable, and the observer stream
  /// carries task events for *successful* attempts only (no machine
  /// busy/idle transitions — segment-level occupancy lives in fault_log()).
  void set_faults(const FaultPlan* plan, RecoveryPolicy recovery = {});

  /// StreamingEngine::drain_faults on the core: after this, every released
  /// task has a terminal fate in fault_log(). Fault mode only.
  void drain_faults() { core_.drain_faults(); }

  /// Ground-truth attempt log of the current fault run. Fault mode only.
  const FaultLog& fault_log() const;

  /// Testing backdoor: StreamingEngine::set_unsafe_ignore_downtime.
  void set_unsafe_ignore_downtime(bool v) { core_.set_unsafe_ignore_downtime(v); }

  /// Testing backdoor: StreamingEngine::set_unsafe_nc_leak on the core.
  void set_unsafe_nc_leak(bool v) { core_.set_unsafe_nc_leak(v); }

 private:
  // Task i's (machine, start); under faults its completing segment, read
  // from the fault log, and (-1, -1) until it completes.
  Assignment assignment_of(int i) const;

  // The decision core; declared first so a bad m throws before any
  // retention state is sized.
  StreamingEngine core_;
  std::vector<Task> tasks_;
  std::vector<Assignment> assignments_;  // fault-free only: faults read the log
  std::vector<double> setups_;  // per task, setup charged before it (nc only)
  std::unique_ptr<FaultLog> fault_log_;  // fault mode only
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
