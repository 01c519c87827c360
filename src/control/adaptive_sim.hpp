// Adaptive cluster runs: a request stream served under a
// ReplicationController that re-tunes the layout while the run is live.
//
// A ControlCase is the fully explicit scenario — request stream (release /
// processing / key per request), the owner map (owner = key mod m), the
// initial layout, the controller config, and an optional FaultPlan — so a
// case is replayable bit-for-bit from its serialization alone, and the
// delta-debugging shrinker can minimize the stream like any instance.
//
// run_adaptive() drives the StreamingEngine core (fault path included),
// which keeps nothing per request: at every dyadic decision boundary the
// controller observes the engine profile w_t(j), the availability set, and
// the measured arrival rate, decides, and the migration frontier actuates
// the decision incrementally; every moved owner charges the setup cost on
// its next request. With `enabled = false`
// no decision is ever taken and the run is byte-identical to the plain
// static path (run_static) — the fuzzer's [diff-control] differential.
#pragma once

#include <string>
#include <vector>

#include "control/control.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "obs/observer.hpp"
#include "sched/dispatchers.hpp"

namespace flowsched {

/// One explicit adaptive scenario. Releases must be non-decreasing; keys
/// are arbitrary non-negative ids owned by machine (key mod m).
struct ControlCase {
  int m = 4;
  LayoutSpec initial;
  ControlConfig control;
  std::vector<double> release;
  std::vector<double> proc;
  std::vector<int> key;
  FaultPlan plan{1};           ///< Fault-free by default (m mismatch ok then).
  RecoveryPolicy recovery;

  int requests() const { return static_cast<int>(release.size()); }
  bool faulty() const { return !plan.fault_free(); }
};

/// Deterministic result of one adaptive (or reference static) run.
struct AdaptiveRunReport {
  int requests = 0;
  long long completed = 0;
  long long dropped = 0;
  long long parked = 0;
  long long retried = 0;
  double wasted_work = 0;
  double fmax = 0;        ///< Max flow over completed requests.
  double mean_flow = 0;   ///< Mean flow over completed requests.
  double makespan = 0;
  /// Flow of each completed request, in request order — the field the
  /// [diff-control] differential compares element-wise.
  std::vector<double> flows;

  // Controller outcome (all zero / empty on static and controller-off runs,
  // and str() then prints the exact static report — byte-identical).
  int decisions = 0;
  int switches = 0;
  int fallbacks = 0;
  double setup_total = 0;
  LayoutSpec final_layout;
  ControlLog log;

  /// Deterministic one-liner, safe to byte-compare across thread counts.
  std::string str() const;
};

/// Serves the case through `dispatcher` under the closed-loop controller.
/// With `enabled = false` the controller never runs (no decisions, no
/// setup charges) and the output equals run_static bitwise. `unsafe_flap`
/// arms the controller's planted-bug backdoor (fuzzing only). A non-null
/// observer receives the engine event stream with run brackets.
AdaptiveRunReport run_adaptive(const ControlCase& c, Dispatcher& dispatcher,
                               bool enabled = true,
                               SchedObserver* observer = nullptr,
                               bool unsafe_flap = false);

/// The reference static path: the same requests as a plain Instance
/// (eligible sets frozen to the initial layout) through run_dispatcher /
/// run_dispatcher_faulty. [diff-control] compares this against
/// run_adaptive(enabled = false).
AdaptiveRunReport run_static(const ControlCase& c, Dispatcher& dispatcher,
                             SchedObserver* observer = nullptr);

}  // namespace flowsched
