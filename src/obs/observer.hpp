// Engine observability: the event stream every sink hangs off.
//
// The scheduling engines (the StreamingEngine core and OnlineEngine, the
// FIFO simulators, the kvstore cluster simulator) can narrate a run as a
// stream of typed events — task released / dispatched / started /
// completed, machine busy/idle transitions — to a borrowed SchedObserver.
// The stream is *zero-overhead when disabled*: an engine holds a nullable
// observer pointer and every emission site is guarded by one predictable
// null check, so a run without an observer executes the exact
// pre-observability code path (asserted by tests/test_obs.cpp against the
// engine suite's known schedules).
//
// Timestamps are *model* time (the paper's time axis), not wall clock: an
// immediate-dispatch engine knows a task's start and completion the moment
// it commits the assignment, so started/completed events are emitted at
// release time carrying their future model timestamps. Sinks that need a
// time-ordered view (counters, series) sort by `time` at finalization; the
// emission order itself is deterministic (release order) and is the
// canonical order of the NDJSON trace variant (docs/trace-format.md).
//
// Three concrete sinks consume this stream: MetricsCollector
// (obs/metrics.hpp), TraceRecorder (obs/trace.hpp), and InvariantAuditor
// (check/audit.hpp); MulticastObserver fans one stream out to any subset.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/procset.hpp"
#include "model/schedule.hpp"

namespace flowsched {

/// \brief Attribution tag for a run produced inside a parallel sweep.
///
/// The experiment runner (src/runner/experiment.hpp) identifies every
/// replicate by the (experiment, cell, repetition) tuple that seeds it.
/// Carrying the same tuple on the trace makes a multi-threaded sweep's
/// traces attributable: the tag, not the worker thread, says which grid
/// cell a trace belongs to, and `replicate_seed(experiment_id(experiment),
/// cell, rep)` reproduces the run.
struct RunTag {
  std::string experiment;  ///< Bench name as passed to experiment_id(); empty = untagged.
  std::uint64_t cell = 0;  ///< cell_id() of the grid coordinates.
  std::uint64_t rep = 0;   ///< Repetition index within the cell.

  bool tagged() const { return !experiment.empty(); }
};

/// \brief Static context of one observed run, passed to on_run_begin().
struct RunInfo {
  int m = 0;         ///< Machine count.
  std::string algo;  ///< Algorithm label (Dispatcher::name(), "FIFO", ...).
  RunTag tag;        ///< Optional sweep attribution.
};

/// \brief Discriminator for ObsEvent. Values are part of the trace format
/// (docs/trace-format.md) — append only, never renumber.
enum class ObsEventKind {
  kTaskReleased,   ///< Task entered the system at its release time.
  kTaskDispatched, ///< Algorithm committed the task to a machine.
  kTaskStarted,    ///< Task begins executing on its machine.
  kTaskCompleted,  ///< Task finishes; flow = time - release.
  kMachineBusy,    ///< Machine transitions idle -> busy.
  kMachineIdle,    ///< Machine transitions busy -> idle.
};

/// \brief One observation. Which fields are meaningful depends on `kind`;
/// the table in docs/trace-format.md is normative.
///
/// For kTaskReleased, `eligible` points at the task's processing set; the
/// pointer is only valid for the duration of the callback (sinks that keep
/// it must copy).
struct ObsEvent {
  ObsEventKind kind = ObsEventKind::kTaskReleased;
  double time = 0.0;   ///< Model time of the event.
  int task = -1;       ///< Task index; -1 for machine events.
  int machine = -1;    ///< Machine index; -1 for kTaskReleased.
  double release = 0;  ///< Task release time (task events).
  double proc = 0;     ///< Task processing time (task events).
  double weight = 1.0; ///< Task flow-time weight w_i (task events).
  double setup = 0.0;  ///< Setup time charged before this task (nc mode).
  const ProcSet* eligible = nullptr;  ///< kTaskReleased only; callback-scoped.
};

/// \brief Sink interface for engine event streams.
///
/// Lifecycle per observed run: exactly one on_run_begin(), then events in
/// emission order, then exactly one on_run_end(). A sink may observe
/// several runs back to back (each bracketed by begin/end); the trace
/// recorder renders each as its own process row group.
///
/// Implementations must not throw out of callbacks on the hot path; they
/// are called with the engine mid-update.
class SchedObserver {
 public:
  virtual ~SchedObserver() = default;

  /// \brief A run starts; `info` describes the engine configuration.
  virtual void on_run_begin(const RunInfo& info) = 0;

  /// \brief One event. See ObsEventKind for the vocabulary.
  virtual void on_event(const ObsEvent& event) = 0;

  /// \brief The run is over; `makespan` is the last completion time.
  virtual void on_run_end(double makespan) = 0;
};

/// \brief Fans one event stream out to several sinks, in order.
///
/// Borrowed pointers; null entries are ignored so call sites can pass
/// optionally-present sinks without branching.
class MulticastObserver final : public SchedObserver {
 public:
  MulticastObserver() = default;
  explicit MulticastObserver(std::vector<SchedObserver*> sinks);

  void add(SchedObserver* sink);

  void on_run_begin(const RunInfo& info) override;
  void on_event(const ObsEvent& event) override;
  void on_run_end(double makespan) override;

 private:
  std::vector<SchedObserver*> sinks_;
};

/// \brief Replays a completed schedule through an observer.
///
/// Emits the full event stream (released / dispatched / started /
/// completed per task, busy/idle transitions per machine, bracketed by
/// on_run_begin/on_run_end) that a queue simulation of the same schedule
/// would have produced, in chronological order: releases in id order, each
/// task's milestones at its start (after every release at or before it,
/// and never before its own release), and each machine's busy/idle edges
/// in place beside the starts that cause them. Starts therefore arrive in
/// non-decreasing order on every machine, the narration contract the
/// auditor's online checks rely on (check/audit.hpp). Dispatch instants
/// are not recorded in a Schedule, so kTaskDispatched is emitted at the
/// task's start time — the convention non-immediate-dispatch algorithms
/// (FIFO) use anyway.
///
/// This is how schedule-valued algorithms without an engine inside
/// (composed_fifo_schedule, offline optima) get traced.
void replay_schedule(const Schedule& sched, const RunInfo& info,
                     SchedObserver& obs);

}  // namespace flowsched
