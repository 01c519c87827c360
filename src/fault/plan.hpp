// Deterministic machine-availability plans (fault injection).
//
// A FaultPlan scripts, per machine, the down intervals [from, to) during
// which the machine is unavailable: dispatchers must not be offered it,
// tasks caught executing on it are killed at `from` and recovered through a
// RecoveryPolicy (fault/recovery.hpp). Plans are either scripted (add_down)
// or drawn from a seeded crash/repair process (random) whose times live on
// the same dyadic grid the fuzzer's instance generator uses, so every
// boundary comparison is exact double arithmetic.
//
// Determinism contract: a random plan is a pure function of
// (m, FaultModelConfig, the Rng stream) — the fuzzer and the benches derive
// that stream from replicate_seed(experiment, cell, rep), so any fault
// schedule is reproducible from the tuple alone (docs/faults.md).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace flowsched {

/// One unavailability window [from, to); `to` may be +infinity (the machine
/// never comes back).
struct DownInterval {
  double from = 0;
  double to = 0;
};

/// Parameters of the seeded crash/repair process used by FaultPlan::random:
/// alternating up/down durations drawn exponentially and quantized to the
/// dyadic grid (minimum one grid step), until `horizon`.
struct FaultModelConfig {
  double mean_up = 16.0;   ///< Mean up duration between crashes (<= 0: no faults).
  double mean_down = 2.0;  ///< Mean repair duration.
  double horizon = 64.0;   ///< Crashes are only generated in [0, horizon).
  double grid = 0.125;     ///< Quantization step (2^-3, the fuzzer's grid).
};

/// Per-machine availability timeline. Immutable once built (the engine and
/// the auditor both read the same plan; neither mutates it).
class FaultPlan {
 public:
  /// Fault-free plan on m machines (>= 1).
  explicit FaultPlan(int m);

  /// Seeded crash/repair trace; consumes only `rng`, so a fixed seed
  /// reproduces the plan exactly. All times are multiples of config.grid.
  /// Throws std::invalid_argument naming the field for a NaN mean_up, a NaN
  /// or negative mean_down, a non-finite horizon or grid, or grid <= 0.
  static FaultPlan random(int m, const FaultModelConfig& config, Rng& rng);

  int m() const { return static_cast<int>(downs_.size()); }

  /// Appends a down interval to `machine`. Intervals must be appended in
  /// increasing time order and must not overlap or touch the previous one;
  /// throws std::invalid_argument otherwise (touching intervals should be
  /// merged by the caller — the plan keeps maximal windows).
  void add_down(int machine, double from, double to);

  /// True when no machine has any down interval.
  bool fault_free() const;

  const std::vector<DownInterval>& downs(int machine) const;

  // The four queries below binary-search the machine's sorted, disjoint
  // interval list: O(log I) for I down intervals (downtime adds the
  // intervals it overlaps).

  /// True when `machine` is available at time t (t outside every [from, to)).
  bool is_up(int machine, double t) const;

  /// Earliest t' >= t at which `machine` is up (+infinity when it never
  /// recovers). Equals t when the machine is up at t.
  double next_up(int machine, double t) const;

  /// Start of the first down interval with from >= t (+infinity when none).
  double next_down(int machine, double t) const;

  /// Lebesgue measure of downtime of `machine` within [t0, t1).
  double downtime(int machine, double t0, double t1) const;

  /// Total number of down intervals across all machines.
  int crash_count() const;

  /// Corpus serialization: one "down <machine 1-based> <from> <to>" line per
  /// interval, in machine order ("" for a fault-free plan). Parsed back by
  /// fault/plan_io.hpp.
  std::string str() const;

  class Cursor;

 private:
  std::vector<std::vector<DownInterval>> downs_;  // per machine, sorted
};

/// \brief A per-machine availability window over a borrowed FaultPlan.
///
/// For each machine the cursor remembers the maximal interval
/// [from, until) that contains the machine's last query, and whether the
/// machine is up throughout it. A query inside that window is answered from
/// it in O(1); any other query (a miss) re-runs the plan's binary search and
/// moves the window. Answers equal the plan's for every time, NaN and
/// +infinity included, in any query order; only the cost depends on
/// locality. The engine's fault path queries through a cursor; the auditor
/// keeps calling the plan itself, so the two stay independent.
class FaultPlan::Cursor {
 public:
  /// Detached cursor; assign one built on a plan before querying.
  Cursor() = default;
  /// `plan` is borrowed and must outlive the cursor.
  explicit Cursor(const FaultPlan& plan);

  /// FaultPlan::is_up, next_up and next_down. Throw std::invalid_argument
  /// for a machine outside [0, m).
  bool is_up(int machine, double t);
  double next_up(int machine, double t);
  double next_down(int machine, double t);

  /// Footprint of the per-machine windows, O(m).
  std::size_t memory_bytes() const {
    return windows_.capacity() * sizeof(Window);
  }

 private:
  struct Window {
    // Empty until the first query, so that query misses.
    double from = 1;
    double until = 0;
    bool up = true;
  };
  // The window of `machine` that answers a query at t: the cached one when
  // it contains t, else the refreshed one (which contains t unless t is NaN
  // or +infinity; the answers below hold for those too).
  const Window& window(int machine, double t);

  const FaultPlan* plan_ = nullptr;
  std::vector<Window> windows_;
};

}  // namespace flowsched
