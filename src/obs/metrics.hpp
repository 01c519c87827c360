// MetricsCollector: streaming aggregation of an engine event stream into
// the quantities the paper's analysis reasons about — per-machine busy time
// and utilization, queue-depth / backlog time series (the Theorem 8
// staircase), flow-time distribution, max backlog.
//
// Counters (busy time, flow moments, histogram) are aggregated streamingly;
// the time series are reconstructed at query time from the retained
// (+1/-1) deltas, because events arrive in *emission* order (release order,
// with completion timestamps pointing into the future) rather than time
// order. At equal timestamps, completions are ordered before releases and
// dispatches: a task completing exactly when another arrives never counts
// as overlapping backlog. All reconstruction is deterministic, so metrics
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

/// \brief Fixed-bin flow-time histogram with exact bucketing.
///
/// Bin b covers [lo + b*w, lo + (b+1)*w) with w = (hi-lo)/bins; values
/// outside [lo, hi) clamp into the boundary bins. The bin index is computed
/// in exact Rational arithmetic whenever the sample (a double, hence a
/// binary rational) converts exactly: the sample is bucketed as the binary
/// rational it *is*, so a value on a bucket boundary goes to the upper bin
/// by definition and a value strictly below it never does — immune to the
/// rounding of (x - lo) / w. With bins=10 over [0,3), the double nearest
/// 0.6 is 5404319552844595/2^53, strictly below the 3/5 boundary, and
/// lands in bin 1 exactly; double arithmetic computes 0.6/0.3 = 2.0 (the
/// quotient rounds up to the boundary) and misfiles it into bin 2. Theory
/// instances (integer and power-of-two times) always take the exact path.
/// Samples or bounds that cannot be represented as int64 rationals fall
/// back to double bucketing.
///
/// Shift path: when lo == 0 and w == 2^s (MetricsCollector's [0, 64) in 64
/// bins), x / w = x * 2^-s is exact in doubles, so the bin is floor(x * 2^-s)
/// clamped into range — the same bin as the Rational path, for every finite
/// sample, at float cost. The constructor decides once which path runs.
class FlowHistogram {
 public:
  /// Bounds as exact rationals; requires lo < hi and bins >= 1.
  FlowHistogram(Rational lo, Rational hi, std::size_t bins);

  /// Files one sample. +inf clamps into the last bin and -inf into bin 0;
  /// NaN has no bin and throws std::invalid_argument.
  void add(double x);

  std::size_t total() const { return total_; }
  std::size_t bins() const { return counts_.size(); }
  std::size_t bin_count(std::size_t b) const { return counts_.at(b); }
  /// Inclusive lower / exclusive upper bound of bin b, as doubles.
  double bin_lo(std::size_t b) const;
  double bin_hi(std::size_t b) const;

 private:
  Rational lo_;
  Rational hi_;
  Rational width_;  // (hi - lo) / bins
  double inv_width_ = 0;  // 2^-s on the shift path (lo == 0, w == 2^s), else 0
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

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
  /// Flow histogram over [0, 64) in 64 unit bins (the shift path).
  MetricsCollector();

  void on_run_begin(const RunInfo& info) override;
  void on_event(const ObsEvent& event) override;
  void on_run_end(double makespan) override;

  const RunInfo& run_info() const { return info_; }
  bool finished() const { return finished_; }
  int m() const { return info_.m; }

  int released() const { return released_; }
  int dispatched() const { return dispatched_; }
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
  /// total_weighted_flow() / sum_i w_i (0 when nothing completed).
  double weighted_mean_flow() const;
  const FlowHistogram& flow_histogram() const { return flow_hist_; }

  /// \brief Streaming flow-time quantiles (log-linear histogram).
  ///
  /// Fed one sample per completion, memory bounded by the flows' range —
  /// the collector's only quantile source that never retains per-request
  /// records, which is what the streaming pipeline reports p50/p99/p999
  /// from (obs/sketch.hpp: within 2^-8 relative of the order statistic;
  /// max is exact).
  double flow_p50() const { return flow_sketch_.p50(); }
  double flow_p90() const { return flow_sketch_.p90(); }
  double flow_p99() const { return flow_sketch_.p99(); }
  double flow_p999() const { return flow_sketch_.p999(); }
  const StreamingQuantiles& flow_sketch() const { return flow_sketch_; }

  /// Peak of the global backlog (released and not yet completed) over time.
  int max_backlog() const;
  /// Piecewise-constant global backlog: value from point.time until the
  /// next point. The Theorem 8 staircase read directly off a run.
  std::vector<SeriesPoint> backlog_series() const;
  /// Queue depth of machine j (dispatched to j, not yet completed) over
  /// time.
  std::vector<SeriesPoint> queue_depth_series(int j) const;

  /// One-line JSON summary (docs/trace-format.md, "metrics row"): run tag,
  /// task counts, makespan, Fmax, mean flow, max backlog, per-machine
  /// utilization. Deterministic field order and number formatting.
  std::string to_json() const;

 private:
  struct Delta {
    double time;
    int machine;  // -1: global backlog delta only
    int delta;    // +1 release/dispatch, -1 completion
  };

  std::vector<SeriesPoint> series_of(int machine) const;

  RunInfo info_;
  bool begun_ = false;
  bool finished_ = false;
  std::size_t events_ = 0;
  int released_ = 0;
  int dispatched_ = 0;
  int completed_ = 0;
  double makespan_ = 0;
  double max_flow_ = 0;
  double flow_sum_ = 0;
  bool any_weighted_ = false;
  double max_weighted_flow_ = 0;
  double weight_sum_ = 0;
  double weighted_flow_approx_ = 0;   // double fallback accumulator
  bool weighted_exact_ok_ = true;     // Rational path still representable
  Rational weighted_flow_exact_{0};   // order-independent exact sum
  FlowHistogram flow_hist_;
  StreamingQuantiles flow_sketch_;
  std::vector<double> busy_;
  // Backlog deltas: (release, -1, +1) and (completion, machine, -1); the
  // completion delta serves both the global backlog and machine j's queue.
  // Dispatch deltas: (release instant, machine, +1).
  std::vector<Delta> deltas_;
};

}  // namespace flowsched
