// End-to-end cluster simulation: request stream -> dispatcher -> latency
// report. This is the Section 7.4 experimental substrate with a key-level
// workload; latency here is exactly the flow time of the scheduling model
// (submission to completion).
#pragma once

#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "kvstore/store.hpp"
#include "obs/observer.hpp"
#include "sched/dispatchers.hpp"
#include "sched/sharded/sharded.hpp"

namespace flowsched {

enum class ServiceDist {
  kConstant,     ///< p_i = service_time (the paper's unit tasks).
  kExponential,  ///< mean service_time.
  kUniform,      ///< uniform in [0.5, 1.5] * service_time.
};

struct SimConfig {
  double lambda = 7.5;       ///< Poisson arrival rate (requests / time unit).
  int requests = 10000;
  double service_time = 1.0;
  ServiceDist dist = ServiceDist::kConstant;
  /// Weighted mode: requests for keys < heavy_keys carry weight
  /// heavy_weight, the rest weight 1. The weight is a pure function of the
  /// key — no extra RNG draws — so arming it never perturbs the arrival
  /// stream, the dispatch decisions, or the unweighted report fields; it
  /// only adds the weighted aggregates to SimReport. 0 disables.
  int heavy_keys = 0;
  double heavy_weight = 8.0;
};

struct SimReport {
  int requests = 0;
  double mean_latency = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double max_latency = 0;  ///< == Fmax of the schedule.
  double makespan = 0;
  std::vector<double> utilization;  ///< Busy fraction per server.

  // Fault-run fields (all zero / empty on fault-free runs, and str() then
  // prints the exact pre-fault report — byte-identical output).
  bool faulty = false;      ///< A non-trivial FaultPlan was attached.
  long long retried = 0;    ///< Kill-triggered re-dispatches.
  long long dropped = 0;    ///< Requests that exhausted their retry budget.
  long long parked = 0;     ///< Attempts that found every replica down.
  double wasted_work = 0;   ///< Killed-segment work that was redone.
  std::vector<double> downtime_fraction;  ///< Down fraction per server.

  // Weighted-run fields (SimConfig::heavy_keys > 0). Computed with the
  // shared weighted_flow_term / exact-Rational-sum recipe in global request
  // order, so the batch, streaming, and sharded paths report them
  // byte-identically. str() appends them only when `weighted` is set, so
  // unweighted reports stay byte-identical to the pre-weight format.
  bool weighted = false;
  double max_weighted_latency = 0;    ///< max_i w_i * F_i.
  double total_weighted_latency = 0;  ///< sum_i w_i * F_i.

  std::string str() const;
};

/// Generates `config.requests` requests against `store` and replays them
/// through `dispatcher`. A non-null `observer` receives the full event
/// stream of the run (request released/dispatched/started/completed per
/// request, server busy/idle transitions), bracketed by run begin/end —
/// latency here is the flow time, so a trace of a simulation is read
/// exactly like a trace of a scheduling run.
///
/// A non-null `faults` plan injects server crashes: requests are killed and
/// recovered per `recovery` (sched/streaming.hpp fault semantics), dropped
/// requests are excluded from the latency quantiles and counted in
/// SimReport::dropped, and latency becomes submission-to-final-completion
/// (retries included). A fault-free plan takes the exact fault-free code
/// path, so attaching one never perturbs the report.
///
/// All three drivers draw requests a block at a time (32 requests: every
/// draw of the block, in per-request order, then the releases), so `rng`
/// ends exactly where a per-request loop would leave it. If a driver
/// throws, `rng` has been advanced to the end of the block being released,
/// not to the request that failed.
SimReport simulate_cluster(const KeyValueStore& store, const SimConfig& config,
                           Dispatcher& dispatcher, Rng& rng,
                           SchedObserver* observer = nullptr,
                           const FaultPlan* faults = nullptr,
                           const RecoveryPolicy& recovery = {});

// --- Streaming mode (docs/streaming.md) -----------------------------------

struct StreamConfig {
  double lambda = 7.5;          ///< Poisson arrival rate.
  /// Stream length; 10^8+ is in scope, up to INT_MAX (SimReport::requests
  /// is an int — both streaming drivers throw std::invalid_argument above).
  long long requests = 10000;
  double service_time = 1.0;
  ServiceDist dist = ServiceDist::kConstant;
  /// Streams up to this length retain per-request latencies and compute
  /// exact type-7 quantiles — byte-identical to simulate_cluster on the
  /// same seed. Longer streams switch to the log-linear histogram
  /// (obs/sketch.hpp, 2^-8 relative error); mean and max stay exact in
  /// both regimes.
  long long exact_quantile_cap = 1 << 16;
  /// Weighted mode, identical semantics to SimConfig::heavy_keys /
  /// heavy_weight: key-derived weights, no extra RNG draws, weighted
  /// aggregates exact in O(1) memory (a max and one Rational running sum).
  int heavy_keys = 0;
  double heavy_weight = 8.0;
};

struct StreamReport {
  /// The batch-report fields, computed identically (same mean/quantile
  /// code on the exact path, running-sum mean + sketch quantiles beyond
  /// the cap). Fault fields stay zero: streaming runs are fault-free.
  SimReport sim;
  double p999 = 0;              ///< Tail beyond the batch report's p99.
  bool exact_quantiles = true;  ///< False once the sketch path engaged.
  std::size_t peak_backlog = 0;     ///< Max in-flight requests.
  std::size_t memory_bytes = 0;     ///< Engine live-footprint estimate.
  double requests_per_sec = 0;  ///< Wall-clock throughput; non-deterministic,
                                ///< excluded from str().
  /// Deterministic one-liner: sim.str() plus the streaming extras. Safe to
  /// byte-compare across thread counts and replays.
  std::string str() const;
};

/// \brief simulate_cluster in O(backlog) memory: same request stream, same
/// dispatch decisions, bounded state.
///
/// Consumes `rng` draw-for-draw like simulate_cluster (arrival gap, key,
/// service per request), drives the same StreamingEngine core without
/// faults, and aggregates latencies streamingly. For
/// requests <= exact_quantile_cap the returned sim fields are byte-identical
/// to the batch path on the same seed (asserted across the corpus grid by
/// tests/test_streaming.cpp); beyond the cap quantiles come from a
/// log-linear histogram within 2^-8 relative of the order statistic. A
/// non-null observer receives run brackets, the per-task milestones and the
/// machine busy/idle transitions (StreamingEngine::set_observer).
StreamReport simulate_cluster_streaming(const KeyValueStore& store,
                                        const StreamConfig& config,
                                        Dispatcher& dispatcher, Rng& rng,
                                        SchedObserver* observer = nullptr);

/// \brief simulate_cluster_streaming through a ShardedEngine
/// (sched/sharded/sharded.hpp): S dispatcher shards with deterministic
/// cross-shard routing and an optional parallel worker team.
///
/// Consumes `rng` draw-for-draw like the single-queue path and aggregates
/// flow statistics in merged global task order, so at shards=1 — and on
/// workloads whose replica sets are shard-local at any S (aligned disjoint
/// blocks) — the deterministic report fields are byte-identical to
/// simulate_cluster_streaming on the same seed (asserted by
/// tests/test_sharded.cpp and cli_stream_smoke's --shards equality check).
/// The report never depends on `opts.shard_workers` (the engine's
/// determinism contract). A non-null observer receives run brackets plus
/// the merged task-milestone stream.
StreamReport simulate_cluster_streaming_sharded(
    const KeyValueStore& store, const StreamConfig& config,
    const ShardedEngine::DispatcherFactory& factory,
    ShardedEngine::Options opts, Rng& rng, SchedObserver* observer = nullptr);

}  // namespace flowsched
