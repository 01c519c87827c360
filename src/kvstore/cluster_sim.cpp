#include "kvstore/cluster_sim.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "model/schedule.hpp"
#include "obs/sketch.hpp"
#include "sched/engine.hpp"
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

// Input checks shared by the streaming drivers. SimReport counts requests
// in an int, so a longer stream is rejected up front instead of wrapping.
void check_stream_config(const StreamConfig& config, const std::string& who) {
  if (!(config.lambda > 0)) {
    throw std::invalid_argument(who + ": lambda <= 0");
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

// Report assembly shared by the streaming drivers, fed one flow per request
// in global request order. Exact regime: retain latencies and run the batch
// path's own mean/quantile code, so the report is byte-identical to
// simulate_cluster for the same seed. Sketch regime: O(1) aggregation.
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
    if (exact_) {
      latencies_.push_back(flow);
    } else {
      sketch_.add(flow);
    }
    if (weighted_) weighted_agg_.add(weight, flow);
    busy_[static_cast<std::size_t>(machine)] += proc;
  }

  StreamReport report(double makespan, std::size_t peak_backlog,
                      std::size_t memory_bytes, double wall_s) const {
    StreamReport report;
    report.sim.requests = static_cast<int>(config_.requests);
    report.exact_quantiles = exact_;
    if (exact_) {
      if (!latencies_.empty()) {
        report.sim.mean_latency = mean(latencies_);
        report.sim.p50 = quantile(latencies_, 0.50);
        report.sim.p90 = quantile(latencies_, 0.90);
        report.sim.p99 = quantile(latencies_, 0.99);
        report.sim.max_latency = quantile(latencies_, 1.0);
        report.p999 = quantile(latencies_, 0.999);
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
  if (!(config.lambda > 0)) {
    throw std::invalid_argument("simulate_cluster: lambda <= 0");
  }
  if (config.heavy_keys < 0 || !(config.heavy_weight > 0)) {
    throw std::invalid_argument("simulate_cluster: bad weight config");
  }
  const bool weighted = config.heavy_keys > 0;
  WeightedAgg weighted_agg;
  const int m = store.config().m;
  // A fault-free plan takes the fault-free path outright, so attaching one
  // cannot perturb the report (byte-identical output, no fault overhead).
  const bool faulty = faults != nullptr && !faults->fault_free();
  OnlineEngine engine(m, dispatcher);
  if (faulty) engine.set_faults(faults, recovery);
  if (observer != nullptr) {
    observer->on_run_begin(RunInfo{m, dispatcher.name(), {}});
    engine.set_observer(observer);
  }

  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(config.requests));
  std::vector<double> busy(static_cast<std::size_t>(m), 0.0);
  std::vector<double> releases;  // fault runs: latency is settled post hoc
  std::vector<double> weights;   // fault runs: weights settle with them
  if (faulty) releases.reserve(static_cast<std::size_t>(config.requests));

  double t = 0.0;
  for (int i = 0; i < config.requests; ++i) {
    t += rng.exponential(config.lambda);
    const int key = store.sample_key(rng);
    const double service = draw_service(config.dist, config.service_time, rng);
    const double w =
        request_weight(key, config.heavy_keys, config.heavy_weight);
    const Assignment a = engine.release(
        Task{.release = t,
             .proc = service,
             .eligible = store.replicas_of_key(key),
             .weight = w});
    if (faulty) {
      // The assignment is provisional (the request may still be killed and
      // requeued); latencies come from the fault log after the drain.
      releases.push_back(t);
      if (weighted) weights.push_back(w);
    } else {
      const double flow = a.start + service - t;
      latencies.push_back(flow);
      if (weighted) weighted_agg.add(w, flow);
      busy[static_cast<std::size_t>(a.machine)] += service;
    }
  }

  SimReport report;
  report.requests = config.requests;
  if (faulty) {
    engine.drain_faults();
    const FaultLog& log = engine.fault_log();
    for (int i = 0; i < config.requests; ++i) {
      if (log.fate(i) == TaskFate::kCompleted) {
        const double flow =
            log.completion(i) - releases[static_cast<std::size_t>(i)];
        latencies.push_back(flow);
        // Dropped requests are excluded, matching the latency quantiles.
        if (weighted) {
          weighted_agg.add(weights[static_cast<std::size_t>(i)], flow);
        }
      }
    }
    // Busy time is real occupancy: killed segments held the server too.
    for (const FaultAttempt& a : log.attempts()) {
      if (a.machine >= 0) busy[static_cast<std::size_t>(a.machine)] += a.work();
    }
    const FaultStats& stats = log.stats();
    report.faulty = true;
    // Dispatch-queue entries beyond each request's first: every kill or
    // park wake-up that put a request back in line.
    report.retried =
        stats.attempts + stats.parked - static_cast<long long>(config.requests);
    report.dropped = stats.dropped;
    report.parked = stats.parked;
    report.wasted_work = stats.wasted_work;
  }
  if (!latencies.empty()) {
    report.mean_latency = mean(latencies);
    report.p50 = quantile(latencies, 0.50);
    report.p90 = quantile(latencies, 0.90);
    report.p99 = quantile(latencies, 0.99);
    report.max_latency = quantile(latencies, 1.0);
  }
  if (weighted) {
    report.weighted = true;
    report.max_weighted_latency = weighted_agg.max_w;
    report.total_weighted_latency = weighted_agg.total();
  }

  double makespan = 0;
  for (int j = 0; j < m; ++j) {
    makespan = std::max(makespan, engine.completions()[static_cast<std::size_t>(j)]);
  }
  report.makespan = makespan;
  report.utilization.resize(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) {
    report.utilization[static_cast<std::size_t>(j)] =
        makespan > 0 ? busy[static_cast<std::size_t>(j)] / makespan : 0.0;
  }
  if (faulty) {
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
      << " quantiles=" << (exact_quantiles ? "exact" : "p2")
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
  double t = 0.0;
  for (long long i = 0; i < config.requests; ++i) {
    t += rng.exponential(config.lambda);
    const int key = store.sample_key(rng);
    const double service = draw_service(config.dist, config.service_time, rng);
    const double w =
        request_weight(key, config.heavy_keys, config.heavy_weight);
    const Assignment a =
        engine.release(t, service, store.replicas_of_key(key), i, w);
    agg.add(a.machine, service, w, a.start + service - t);
  }
  const std::size_t live_bytes = engine.memory_bytes();
  engine.drain();
  const auto wall_end = std::chrono::steady_clock::now();

  double makespan = 0;
  for (double c : engine.completions()) makespan = std::max(makespan, c);
  const StreamReport report =
      agg.report(makespan, engine.peak_in_flight(), live_bytes,
                 std::chrono::duration<double>(wall_end - wall_start).count());
  if (observer != nullptr) observer->on_run_end(makespan);
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
  double t = 0.0;
  for (long long i = 0; i < config.requests; ++i) {
    t += rng.exponential(config.lambda);
    const int key = store.sample_key(rng);
    const double service = draw_service(config.dist, config.service_time, rng);
    engine.release(t, service, store.replicas_of_key(key),
                   request_weight(key, config.heavy_keys, config.heavy_weight));
  }
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
