// Deterministic parallel experiment runner.
//
// Every stochastic experiment in bench/ has the same shape: a grid of cells
// (facet x load x algorithm, s x k, ...) with R independent seeded
// repetitions per cell, aggregated by a median or a max. The runner fans
// those replicate closures out across a ThreadPool and keeps the results
// *bit-identical* to a serial run:
//
//  * each job derives its RNG stream from replicate_seed(experiment, cell,
//    rep) — a splitmix64 hash of the tuple — never from shared RNG state or
//    submission order;
//  * results are collected in job order (futures are awaited in the order
//    the jobs were defined), so reductions see the same operand sequence
//    regardless of which worker finished first.
//
// Consequently `--threads 8` produces byte-identical tables to
// `--threads 1` (enforced by tests/test_experiment_determinism.cpp), and a
// single 64-bit experiment id reproduces any run.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "runner/thread_pool.hpp"

namespace flowsched {

/// \brief A replicate failure tagged with the (experiment, cell, rep)
/// context that reproduces it.
///
/// ExperimentRunner::replicates wraps any exception escaping a replicate
/// closure in one of these, so a sweep that dies half-way reports *which*
/// seeded replicate failed — `replicate_seed(experiment, cell, rep)` re-runs
/// exactly that job — instead of an anonymous exception unwinding through
/// the pool. Benches catch it at top level and exit nonzero.
class ReplicateError : public std::runtime_error {
 public:
  ReplicateError(std::uint64_t experiment, std::uint64_t cell,
                 std::uint64_t rep, const std::string& detail);
};

/// \brief Stable 64-bit id for an experiment name (FNV-1a 64 over the raw
/// bytes, offset basis 0xcbf29ce484222325, prime 0x100000001b3).
///
/// The root of the seed-derivation chain: distinct benches draw disjoint
/// RNG streams even for equal (cell, rep) pairs, because their names hash
/// apart here. The id is stable across platforms and versions — it is part
/// of the reproducibility contract (a trace tagged with an experiment name
/// can be re-run from the name alone) — so the hash must never change.
///
/// \param name Bench name as it appears in the RunTag (e.g.
///   "fig11_simulation").
/// \return The FNV-1a hash (tests/test_experiment_determinism.cpp
///   spot-checks that distinct bench names hash apart).
std::uint64_t experiment_id(std::string_view name);

/// \brief Collapses grid coordinates into one 64-bit cell id.
///
/// Implementation: a splitmix64 chain — the state starts at the golden
/// ratio constant 0x9e3779b97f4a7c15 and each coordinate is absorbed by
/// `state = splitmix64(state ^ coord)`. The chain is deliberately
/// order-sensitive (`cell_id({a, b}) != cell_id({b, a})`) and
/// length-sensitive (`cell_id({0}) != cell_id({0, 0})`), so grids with
/// symmetric coordinates still map every cell to a distinct id.
///
/// Cell ids travel in traces as 16-digit `0x…` hex strings (they exceed
/// JSON's interoperable integer range; see docs/trace-format.md §4).
///
/// \param coords Grid coordinates in a fixed, documented order — the order
///   is part of each bench's cell contract (e.g. fig11 uses
///   {popularity, strategy, load}).
std::uint64_t cell_id(std::initializer_list<std::uint64_t> coords);

/// \brief The RNG seed of repetition `rep` of cell `cell` of experiment
/// `experiment`.
///
/// Implementation: splitmix64 mixing of the tuple —
/// `splitmix64(splitmix64(splitmix64(experiment) ^ cell) ^ rep)` (the same
/// finalizer Rng uses to expand seeds, duplicated in runner/experiment.cpp
/// so the contract cannot drift with Rng internals). The
/// resulting streams are statistically independent for distinct tuples and
/// identical no matter which worker thread runs the replicate; this is what
/// makes `--threads N` byte-identical to `--threads 1` (and the traces
/// attributable: a RunTag carrying (experiment, cell, rep) names exactly
/// this seed).
///
/// \param experiment experiment_id() of the bench name.
/// \param cell cell_id() of the replicate's grid coordinates.
/// \param rep Repetition index within the cell, counted from 0.
/// \return The seed to construct the replicate's Rng from; derive *all* of
///   the replicate's randomness from it — never from shared RNG state or
///   submission order.
std::uint64_t replicate_seed(std::uint64_t experiment, std::uint64_t cell,
                             std::uint64_t rep);

/// \brief Thread-count resolution for the shared `--threads N` bench flag.
///
/// \param requested n >= 1 is taken as-is; anything else (0, negative)
///   means hardware concurrency (at least 1).
int resolve_threads(int requested);

class ExperimentRunner {
 public:
  /// `threads` as in resolve_threads(); 1 runs jobs inline on the calling
  /// thread (the serial reference a parallel run must reproduce).
  explicit ExperimentRunner(int threads = 0);
  ~ExperimentRunner();

  int threads() const { return threads_; }

  /// Runs fn(0..count-1) and returns the results in index order. Jobs must
  /// be independent; determinism is the caller's contract (derive all
  /// randomness from replicate_seed).
  ///
  /// Error contract: if jobs throw, every job still runs to completion (no
  /// detached work survives the call) and the exception of the *smallest
  /// failing index* is rethrown — the same one a serial run hits first, so
  /// the surfaced error is identical at any thread count.
  template <typename R>
  std::vector<R> map(int count, const std::function<R(int)>& fn) {
    std::vector<R> results;
    if (count <= 0) return results;
    results.reserve(static_cast<std::size_t>(count));
    if (!pool_) {
      for (int i = 0; i < count; ++i) {
        watch_inline_begin();
        results.push_back(fn(i));
        watch_inline_end(i);
      }
      return results;
    }
    WatchSession watch = watch_start(count);
    std::vector<std::future<R>> futures;
    futures.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      futures.push_back(pool_->submit([this, &fn, i, s = watch.state] {
        watch_job_begin(s, i);
        try {
          R r = fn(i);
          watch_job_end(s, i);
          return r;
        } catch (...) {
          watch_job_end(s, i);
          throw;
        }
      }));
    }
    // Harvest everything before surfacing a failure: the first-by-index
    // exception wins, later ones are dropped (their jobs did complete).
    std::exception_ptr first_error;
    for (auto& f : futures) {
      try {
        results.push_back(f.get());
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    watch_finish(watch);
    if (first_error) std::rethrow_exception(first_error);
    return results;
  }

  /// The common case: `reps` seeded repetitions of one cell, in rep order.
  /// fn receives (seed, rep) with seed = replicate_seed(experiment, cell,
  /// rep). Exceptions escaping fn surface as ReplicateError carrying
  /// (experiment, cell, rep) — see the class doc above.
  std::vector<double> replicates(
      std::uint64_t experiment, std::uint64_t cell, int reps,
      const std::function<double(std::uint64_t seed, int rep)>& fn);

  /// median(replicates(...)) — the paper's aggregation.
  double median_replicates(
      std::uint64_t experiment, std::uint64_t cell, int reps,
      const std::function<double(std::uint64_t seed, int rep)>& fn);

  // --- Watchdog -----------------------------------------------------------

  /// \brief Arms a per-replicate wall-clock watchdog (0 disables, the
  /// default).
  ///
  /// A job running longer than `seconds` is reported once to stderr with
  /// its context. The job is NOT killed —
  /// C++ cannot cancel a thread safely — so a hung cell is *marked*, and
  /// the caller decides whether to abandon the sweep. On the serial path
  /// (threads == 1) overruns are detected after the job returns.
  void set_watchdog(double seconds) { watchdog_seconds_ = seconds; }

  /// Context prefix for watchdog reports of subsequent map() calls
  /// (replicates() sets "experiment=0x... cell=0x..." automatically).
  void set_watch_label(std::string label) { watch_label_ = std::move(label); }

 private:
  struct WatchdogState;  // defined in experiment.cpp

  /// Monitor session for one map() call; state is null when the watchdog
  /// is disarmed (then every watch_* call below is a no-op null check).
  struct WatchSession {
    std::shared_ptr<WatchdogState> state;
    std::thread monitor;
  };
  WatchSession watch_start(int count);
  void watch_job_begin(const std::shared_ptr<WatchdogState>& s, int index);
  void watch_job_end(const std::shared_ptr<WatchdogState>& s, int index);
  void watch_finish(WatchSession& session);
  void watch_inline_begin();
  void watch_inline_end(int index);
  void record_hung(int index, double elapsed_seconds);

  int threads_;
  int budget_reserved_ = 0;  // cores claimed in the CoreBudget ledger
  std::unique_ptr<ThreadPool> pool_;  // null when threads_ == 1
  double watchdog_seconds_ = 0;
  std::string watch_label_;
  double inline_job_begin_ = 0;  // steady-clock seconds; serial watchdog
};

}  // namespace flowsched
