#include "kvstore/cluster_sim.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "model/schedule.hpp"
#include "obs/sketch.hpp"
#include "sched/streaming.hpp"
#include "util/rational.hpp"
#include "util/stats.hpp"

namespace flowsched {
namespace {

// Request weight as a pure function of the key (no RNG): the first
// `heavy_keys` keys form the heavy tail. Returning exactly 1.0 outside it
// keeps weighted_flow_term on the identity path for light requests.
double request_weight(int key, int heavy_keys, double heavy_weight) {
  return key < heavy_keys ? heavy_weight : 1.0;
}

// Order-consistent weighted-latency accumulator shared by the three sim
// paths: the same weighted_flow_term terms and the same
// exact-Rational-sum-with-double-fallback recipe as Schedule and
// MetricsCollector, fed in global request order everywhere, so the batch,
// streaming, and sharded reports carry bitwise-equal weighted fields.
struct WeightedAgg {
  double max_w = 0;
  double approx = 0;
  bool exact_ok = true;
  Rational exact{0};

  void add(double w, double flow) {
    const double term = weighted_flow_term(w, flow);
    max_w = std::max(max_w, term);
    approx += term;
    if (!exact_ok) return;
    const auto rt = rational_from_double(term);
    if (!rt) {
      exact_ok = false;
      return;
    }
    try {
      exact = exact + *rt;
    } catch (const std::overflow_error&) {
      exact_ok = false;
    }
  }
  double total() const { return exact_ok ? exact.to_double() : approx; }
};

double draw_service(ServiceDist dist, double service_time, Rng& rng) {
  switch (dist) {
    case ServiceDist::kConstant:
      return service_time;
    case ServiceDist::kExponential: {
      // Clamp away from 0: the model requires p_i > 0.
      const double p = rng.exponential(1.0 / service_time);
      return p > 1e-9 ? p : 1e-9;
    }
    case ServiceDist::kUniform:
      return rng.uniform(0.5, 1.5) * service_time;
  }
  throw std::logic_error("draw_service: unknown distribution");
}

// Input checks shared by the three drivers. SimReport counts requests in
// an int, so a longer stream is rejected up front instead of wrapping.
void check_stream_config(const StreamConfig& config, const std::string& who) {
  // Negated, so NaN is rejected; an infinite rate would release every
  // request at t = 0, and an infinite service time would make every flow
  // infinite.
  if (!(config.lambda > 0) || !std::isfinite(config.lambda)) {
    throw std::invalid_argument(who + ": lambda must be finite and > 0");
  }
  if (!(config.service_time > 0) || !std::isfinite(config.service_time)) {
    throw std::invalid_argument(who + ": service_time must be finite and > 0");
  }
  if (config.requests < 0) {
    throw std::invalid_argument(who + ": requests < 0");
  }
  if (config.requests > std::numeric_limits<int>::max()) {
    throw std::invalid_argument(who + ": requests > INT_MAX");
  }
  if (config.heavy_keys < 0 || !(config.heavy_weight > 0)) {
    throw std::invalid_argument(who + ": bad weight config");
  }
}

// Requests the shared loop draws ahead before releasing them. A block's
// alias columns and replica-set blocks are prefetched while the block is
// drawn and resolved, so the two dependent cache misses per request (the
// key's column, then its owner's ProcSet) overlap instead of stalling each
// release in turn.
constexpr int kDrawBlock = 32;

// The request stream shared by the three drivers. Each request consumes
// `rng` in a fixed order (arrival gap, key uniform, service), which is what
// makes their reports byte-identical on one seed, and is handed to
// `release` as (index, release time, service, replica set, weight). The
// loop works a block at a time: draw every request of the block in that
// per-request order (so the stream is consumed exactly as one request at a
// time would), resolve the keys, then release the block in order. A
// template, so each driver's release lambda inlines into the loop.
template <class Release>
void for_each_request(const KeyValueStore& store, const StreamConfig& config,
                      Rng& rng, Release&& release) {
  struct Drawn {
    double t;
    double u;  // the key's uniform, resolved after the block is drawn
    double service;
    int key;
  };
  Drawn block[kDrawBlock]{};
  double t = 0.0;
  for (long long i0 = 0; i0 < config.requests; i0 += kDrawBlock) {
    const int len = static_cast<int>(
        std::min<long long>(kDrawBlock, config.requests - i0));
    for (int b = 0; b < len; ++b) {
      Drawn& d = block[b];
      t += rng.exponential(config.lambda);
      d.t = t;
      d.u = rng.uniform();
      store.prefetch_key(d.u);
      d.service = draw_service(config.dist, config.service_time, rng);
    }
    for (int b = 0; b < len; ++b) {
      block[b].key = store.resolve_key(block[b].u);
      store.replicas_of_key(block[b].key).prefetch();
    }
    for (int b = 0; b < len; ++b) {
      const Drawn& d = block[b];
      release(i0 + b, d.t, d.service, store.replicas_of_key(d.key),
              request_weight(d.key, config.heavy_keys, config.heavy_weight));
    }
  }
}

// Report assembly shared by the three drivers, fed the flows in global
// request order. Exact regime: retain latencies and compute type-7
// quantiles. Sketch regime (streaming only): the flow histogram.
class StreamAggregate {
 public:
  StreamAggregate(const StreamConfig& config, int m)
      : config_(config),
        exact_(config.requests <= config.exact_quantile_cap),
        weighted_(config.heavy_keys > 0),
        busy_(static_cast<std::size_t>(m), 0.0) {
    if (exact_) latencies_.reserve(static_cast<std::size_t>(config.requests));
  }

  void add(int machine, double proc, double weight, double flow) {
    add_flow(weight, flow);
    add_busy(machine, proc);
  }

  void add_flow(double weight, double flow) {
    if (exact_) {
      latencies_.push_back(flow);
    } else {
      sketch_.add(flow);
    }
    if (weighted_) weighted_agg_.add(weight, flow);
  }

  void add_busy(int machine, double work) {
    busy_[static_cast<std::size_t>(machine)] += work;
  }

  // Permutes the retained latencies in place: call once, after the last add.
  StreamReport report(double makespan, std::size_t peak_backlog,
                      std::size_t memory_bytes, double wall_s) {
    StreamReport report;
    report.sim.requests = static_cast<int>(config_.requests);
    report.exact_quantiles = exact_;
    if (exact_) {
      if (!latencies_.empty()) {
        // The mean sums in request order, before the selection permutes.
        report.sim.mean_latency = mean(latencies_);
        static constexpr double kQs[] = {0.50, 0.90, 0.99, 0.999, 1.0};
        const std::vector<double> qv = select_quantiles(latencies_, kQs);
        report.sim.p50 = qv[0];
        report.sim.p90 = qv[1];
        report.sim.p99 = qv[2];
        report.p999 = qv[3];
        report.sim.max_latency = qv[4];
      }
    } else {
      report.sim.mean_latency = sketch_.mean();
      report.sim.p50 = sketch_.p50();
      report.sim.p90 = sketch_.p90();
      report.sim.p99 = sketch_.p99();
      report.sim.max_latency = sketch_.max();  // exact in both regimes
      report.p999 = sketch_.p999();
    }
    if (weighted_) {
      report.sim.weighted = true;
      report.sim.max_weighted_latency = weighted_agg_.max_w;
      report.sim.total_weighted_latency = weighted_agg_.total();
    }
    report.sim.makespan = makespan;
    report.sim.utilization.resize(busy_.size());
    for (std::size_t j = 0; j < busy_.size(); ++j) {
      report.sim.utilization[j] = makespan > 0 ? busy_[j] / makespan : 0.0;
    }
    report.peak_backlog = peak_backlog;
    report.memory_bytes = memory_bytes;
    report.requests_per_sec =
        wall_s > 0 ? static_cast<double>(config_.requests) / wall_s : 0.0;
    return report;
  }

 private:
  const StreamConfig& config_;
  bool exact_;
  bool weighted_;
  std::vector<double> latencies_;
  StreamingQuantiles sketch_;
  WeightedAgg weighted_agg_;
  std::vector<double> busy_;
};

}  // namespace

std::string SimReport::str() const {
  std::ostringstream out;
  out << "requests=" << requests << " mean=" << mean_latency << " p50=" << p50
      << " p90=" << p90 << " p99=" << p99 << " max(Fmax)=" << max_latency;
  if (faulty) {
    // Appended only on fault runs so fault-free reports stay byte-identical
    // to the pre-fault format.
    double down = 0;
    for (double f : downtime_fraction) down += f;
    out << " retried=" << retried << " dropped=" << dropped
        << " parked=" << parked << " wasted=" << wasted_work << " downtime="
        << (downtime_fraction.empty()
                ? 0.0
                : down / static_cast<double>(downtime_fraction.size()));
  }
  if (weighted) {
    // Appended only on weighted runs, same contract as the fault fields.
    out << " fmaxw=" << max_weighted_latency
        << " totalw=" << total_weighted_latency;
  }
  return out.str();
}

SimReport simulate_cluster(const KeyValueStore& store, const SimConfig& config,
                           Dispatcher& dispatcher, Rng& rng,
                           SchedObserver* observer, const FaultPlan* faults,
                           const RecoveryPolicy& recovery) {
  // The streaming drivers' checks and report, pinned to the exact regime.
  const StreamConfig stream{.lambda = config.lambda,
                            .requests = config.requests,
                            .service_time = config.service_time,
                            .dist = config.dist,
                            .exact_quantile_cap = config.requests,
                            .heavy_keys = config.heavy_keys,
                            .heavy_weight = config.heavy_weight};
  check_stream_config(stream, "simulate_cluster");
  const int m = store.config().m;
  // A fault-free plan takes the fault-free path outright, so attaching one
  // cannot perturb the report (byte-identical output, no fault overhead).
  const bool faulty = faults != nullptr && !faults->fault_free();
  // The report reads nothing per request from the engine, so the run drives
  // the decision core directly.
  StreamingEngine engine(m, dispatcher);
  FlowsInTaskOrder fates(faulty ? config.requests : 0);
  if (faulty) {
    engine.set_faults(faults, recovery);
    engine.set_fate_sink(&fates);
  }
  if (observer != nullptr) {
    observer->on_run_begin(RunInfo{m, dispatcher.name(), {}});
    engine.set_observer(observer);
  }

  StreamAggregate agg(stream, m);
  for_each_request(store, stream, rng, [&](long long i, double t, double proc,
                                           const ProcSet& eligible, double w) {
    const Assignment a = engine.release(t, proc, eligible, i, w);
    // A fault run's assignment is provisional (the request may still be
    // killed and requeued): its flow settles through the fate sink.
    if (!faulty) agg.add(a.machine, proc, w, a.start + proc - t);
  });

  FaultOutcome outcome;
  if (faulty) {
    engine.drain_faults();
    // Dropped requests are excluded from every flow statistic.
    fates.for_each_completed(
        [&](double weight, double flow) { agg.add_flow(weight, flow); });
    outcome = engine.fault_stats().outcome(config.requests);
    // Busy time is real occupancy: killed segments held the server too.
    const std::vector<double>& occupied = engine.occupied();
    for (int j = 0; j < m; ++j) {
      agg.add_busy(j, occupied[static_cast<std::size_t>(j)]);
    }
  }

  const double makespan = std::ranges::max(engine.completions());
  SimReport report = agg.report(makespan, 0, 0, 0).sim;
  if (faulty) {
    report.faulty = true;
    report.retried = outcome.retried;
    report.dropped = outcome.dropped;
    report.parked = outcome.parked;
    report.wasted_work = outcome.wasted_work;
    report.downtime_fraction.resize(static_cast<std::size_t>(m));
    for (int j = 0; j < m; ++j) {
      report.downtime_fraction[static_cast<std::size_t>(j)] =
          makespan > 0 ? faults->downtime(j, 0, makespan) / makespan : 0.0;
    }
  }
  if (observer != nullptr) {
    engine.finish_observation();
    observer->on_run_end(makespan);
  }
  return report;
}

std::string StreamReport::str() const {
  std::ostringstream out;
  out << sim.str() << " p999=" << p999
      << " quantiles=" << (exact_quantiles ? "exact" : "hist")
      << " peak-backlog=" << peak_backlog;
  return out.str();
}

StreamReport simulate_cluster_streaming(const KeyValueStore& store,
                                        const StreamConfig& config,
                                        Dispatcher& dispatcher, Rng& rng,
                                        SchedObserver* observer) {
  check_stream_config(config, "simulate_cluster_streaming");
  const int m = store.config().m;
  StreamingEngine engine(m, dispatcher);
  if (observer != nullptr) {
    observer->on_run_begin(RunInfo{m, dispatcher.name(), {}});
    engine.set_observer(observer);
  }

  StreamAggregate agg(config, m);
  const auto wall_start = std::chrono::steady_clock::now();
  for_each_request(store, config, rng, [&](long long i, double t, double proc,
                                           const ProcSet& eligible, double w) {
    const Assignment a = engine.release(t, proc, eligible, i, w);
    agg.add(a.machine, proc, w, a.start + proc - t);
  });
  const std::size_t live_bytes = engine.memory_bytes();
  engine.drain();
  const auto wall_end = std::chrono::steady_clock::now();

  const double makespan = std::ranges::max(engine.completions());
  const StreamReport report =
      agg.report(makespan, engine.peak_in_flight(), live_bytes,
                 std::chrono::duration<double>(wall_end - wall_start).count());
  if (observer != nullptr) {
    engine.finish_observation();
    observer->on_run_end(makespan);
  }
  return report;
}

StreamReport simulate_cluster_streaming_sharded(
    const KeyValueStore& store, const StreamConfig& config,
    const ShardedEngine::DispatcherFactory& factory,
    ShardedEngine::Options opts, Rng& rng, SchedObserver* observer) {
  check_stream_config(config, "simulate_cluster_streaming_sharded");
  const int m = store.config().m;
  ShardedEngine engine(m, factory, opts);
  if (observer != nullptr) {
    observer->on_run_begin(RunInfo{m, engine.algo_name(), {}});
    engine.set_observer(observer);
  }

  // The flow sink fires during each epoch's serial merge in global task
  // order, so the aggregate consumes the exact sequence the single-queue
  // loop computes inline — byte-identical reports.
  StreamAggregate agg(config, m);
  engine.set_flow_sink([&](const ShardedEngine::FlowEvent& e) {
    agg.add(e.machine, e.proc, e.weight, e.start + e.proc - e.release);
  });

  const auto wall_start = std::chrono::steady_clock::now();
  for_each_request(store, config, rng, [&](long long, double t, double proc,
                                           const ProcSet& eligible, double w) {
    engine.release(t, proc, eligible, w);
  });
  const std::size_t live_bytes = engine.memory_bytes();
  engine.drain();
  const auto wall_end = std::chrono::steady_clock::now();

  const double makespan = engine.makespan();
  const StreamReport report =
      agg.report(makespan, engine.peak_backlog(), live_bytes,
                 std::chrono::duration<double>(wall_end - wall_start).count());
  if (observer != nullptr) observer->on_run_end(makespan);
  return report;
}

}  // namespace flowsched
