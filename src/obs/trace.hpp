// TraceRecorder: renders an engine event stream as a Chrome trace_event
// JSON file (loadable in chrome://tracing and Perfetto's legacy importer)
// or as newline-delimited JSON for scripting. docs/trace-format.md is the
// normative spec of both encodings; tests/test_obs.cpp round-trips the
// output through the spec's required fields.
//
// Layout of the Chrome view: each observed run is one *process* (pid = run
// index, named "<algo> [experiment/cell/rep]" when tagged), each machine is
// one *thread* row (tid = machine, named M1..Mm), task executions are
// complete ("X") slices on their machine's row, releases are instant ("i")
// events on a dedicated releases row (tid = m), and the global backlog
// (released − completed) is a counter ("C") track — the Theorem 8
// staircase, directly visible. One model time unit maps to 1e6 trace
// microseconds.
//
// Determinism: events are buffered in emission order and serialized with
// shortest-round-trip number formatting, so two runs with the same seeds
// produce byte-identical trace files regardless of thread count (the
// recorder itself is single-run-at-a-time; parallel sweeps record into one
// recorder per replicate and merge() them in job order).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/observer.hpp"

namespace flowsched {

/// Scale from model time to trace_event microsecond timestamps.
inline constexpr double kTraceTimeScale = 1e6;

class TraceRecorder final : public SchedObserver {
 public:
  TraceRecorder() = default;

  void on_run_begin(const RunInfo& info) override;
  void on_event(const ObsEvent& event) override;
  void on_run_end(double makespan) override;

  /// Number of runs recorded so far (each begin/end bracket is one run).
  int runs() const { return static_cast<int>(runs_.size()); }
  /// Total buffered events across runs.
  std::size_t events() const;

  /// Appends another recorder's runs after this one's (pids renumber to
  /// stay unique). The merge order is the caller's contract — parallel
  /// sweeps merge in job order to keep the output thread-count-invariant.
  void merge(TraceRecorder&& other);

  /// Chrome trace_event JSON (docs/trace-format.md §2). The whole document
  /// is produced in one deterministic pass.
  void write_json(std::ostream& out) const;
  std::string json() const;

  /// NDJSON variant (docs/trace-format.md §3): a header line, then one raw
  /// event object per line in emission order.
  void write_ndjson(std::ostream& out) const;
  std::string ndjson() const;

 private:
  struct Recorded {
    ObsEventKind kind;
    double time;
    int task;
    int machine;
    double release;
    double proc;
    std::vector<int> eligible;  // kTaskReleased only
  };
  struct Run {
    RunInfo info;
    double makespan = 0;
    bool ended = false;
    std::vector<Recorded> events;
  };

  Run& current();

  std::vector<Run> runs_;
};

}  // namespace flowsched
