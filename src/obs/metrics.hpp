// MetricsCollector: streaming aggregation of an engine event stream into
// the quantities the paper's analysis reasons about — per-machine busy time
// and utilization, queue-depth / backlog time series (the Theorem 8
// staircase), flow-time distribution, max backlog.
//
// Counters (busy time, flow moments, flow quantiles) are aggregated
// streamingly; the time series are reconstructed at query time from the
// retained (+1/-1) deltas, because events arrive in *emission* order
// (release order, with completion timestamps pointing into the future)
// rather than time order. At equal timestamps, completions are ordered
// before releases and dispatches: a task completing exactly when another
// arrives never counts as overlapping backlog. All reconstruction is deterministic, so metrics
// from a parallel sweep replicate are byte-identical to a serial run's.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/observer.hpp"
#include "obs/sketch.hpp"
#include "util/rational.hpp"

namespace flowsched {

/// \brief One (time, value) step of a piecewise-constant series.
struct SeriesPoint {
  double time = 0;
  int value = 0;
};

/// \brief Aggregates an event stream into scheduling metrics.
///
/// Attach to an engine (OnlineEngine::set_observer, or the observer
/// parameters of run_dispatcher / fifo_schedule / simulate_cluster), run,
/// then query. Valid after on_run_end(); the monotone counters are also
/// meaningful mid-run. A collector observes exactly one run; reuse is a
/// logic error (on_run_begin() throws on the second call).
class MetricsCollector final : public SchedObserver {
 public:
  void on_run_begin(const RunInfo& info) override;
  void on_event(const ObsEvent& event) override;
  void on_run_end(double makespan) override;

  int completed() const { return completed_; }
  /// Total raw events observed (all kinds).
  std::size_t events() const { return events_; }

  /// Busy time of machine j: sum of processing over its completed tasks.
  double busy_time(int j) const;
  /// busy_time(j) / makespan (0 when the makespan is 0).
  double utilization(int j) const;
  double makespan() const { return makespan_; }

  double max_flow() const { return max_flow_; }
  double mean_flow() const;

  /// True once any completed task carried a weight != 1.
  bool any_weighted() const { return any_weighted_; }
  /// Weighted Fmax^w = max_i w_i * F_i (equals max_flow() at unit weights).
  double max_weighted_flow() const { return max_weighted_flow_; }
  /// Sum_i w_i * F_i, Rational-exact while every term is representable.
  double total_weighted_flow() const;

  /// \brief Streaming flow-time quantiles (log-linear histogram).
  ///
  /// Fed one sample per completion, memory bounded by the flows' range —
  /// the collector's only quantile source that never retains per-request
  /// records, which is what the streaming pipeline reports p50/p99/p999
  /// from (obs/sketch.hpp: within 2^-8 relative of the order statistic;
  /// max is exact).
  double flow_p50() const { return flow_sketch_.p50(); }
  double flow_p99() const { return flow_sketch_.p99(); }
  double flow_p999() const { return flow_sketch_.p999(); }

  /// Peak of the global backlog (released and not yet completed) over time.
  int max_backlog() const;
  /// Piecewise-constant global backlog: value from point.time until the
  /// next point. The Theorem 8 staircase read directly off a run.
  std::vector<SeriesPoint> backlog_series() const;

  /// One-line JSON summary (docs/trace-format.md, "metrics row"): run tag,
  /// task counts, makespan, Fmax, mean flow, max backlog, per-machine
  /// utilization. Deterministic field order and number formatting.
  std::string to_json() const;

 private:
  struct Delta {
    double time;
    int delta;  // +1 release, -1 completion
  };

  RunInfo info_;
  bool begun_ = false;
  std::size_t events_ = 0;
  int released_ = 0;
  int completed_ = 0;
  double makespan_ = 0;
  double max_flow_ = 0;
  double flow_sum_ = 0;
  bool any_weighted_ = false;
  double max_weighted_flow_ = 0;
  double weighted_flow_approx_ = 0;   // double fallback accumulator
  bool weighted_exact_ok_ = true;     // Rational path still representable
  Rational weighted_flow_exact_{0};   // order-independent exact sum
  StreamingQuantiles flow_sketch_;
  std::vector<double> busy_;
  // Backlog deltas: (release, +1) and (completion, -1).
  std::vector<Delta> deltas_;
};

}  // namespace flowsched
