// flowsched_e2e: one repetition of one end-to-end benchmark workload.
//
//   flowsched_e2e run --workload <name> --seed <n> [--scale-div <d>]
//                     [--trace <spans.json>] [--plant ulp|drop-decision]
//   flowsched_e2e build-info
//
// A rep builds its inputs from the seed (timed as set-up), calls one public
// entry point of the library on them (timed), checks the outputs, and
// prints one JSON line: the deterministic report, the end-to-end metrics
// and the check verdicts. With --trace the process runs kTracedPasses
// passes, each the untraced call followed by the same work re-driven with
// timers around the calls into each layer; it reports the median pass's
// per-layer breakdown and writes all spans as Chrome trace_event JSON.
// run.py launches one process per rep, compares reports across reps and
// summarizes them (README.md in this directory).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/audit.hpp"
#include "control/adaptive_sim.hpp"
#include "control/control.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "kvstore/cluster_sim.hpp"
#include "kvstore/store.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/sketch.hpp"
#include "runner/experiment.hpp"
#include "sched/dispatchers.hpp"
#include "sched/engine.hpp"
#include "sched/sharded/sharded.hpp"
#include "sched/streaming.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace flowsched;

namespace {

using Clock = std::chrono::steady_clock;

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// --- Workloads --------------------------------------------------------------

enum class Kind { kStream, kShard, kBatch, kFaults };

struct Workload {
  std::string_view name;
  Kind kind;
  int m;
  int k;          ///< Initial replication factor (overlapping ring).
  double zipf_s;  ///< Key popularity skew (unused by kFaults: uniform keys).
  double lambda;  ///< Poisson arrival rate in model time.
  long long requests;
};

// Why each workload exists is recorded in README.md; the sizes make one rep
// take a few seconds on one core.
constexpr Workload kWorkloads[] = {
    {"stream-ring", Kind::kStream, 256, 3, 0.5, 192.0, 10'000'000},
    {"stream-wide", Kind::kStream, 4096, 64, 0.5, 3072.0, 4'000'000},
    {"stream-hot", Kind::kStream, 256, 3, 1.0, 192.0, 8'000'000},
    {"shard-ring", Kind::kShard, 256, 3, 0.5, 192.0, 8'000'000},
    {"batch-audited", Kind::kBatch, 64, 3, 0.5, 48.0, 400'000},
    {"faults-adaptive", Kind::kFaults, 64, 3, 0.0, 44.8, 500'000},
};
constexpr int kKeysPerServer = 100;
constexpr int kShards = 4;
constexpr int kShardWorkers = 2;
/// StreamConfig::exact_quantile_cap: the prefix length of the
/// streaming-vs-batch and worker-count equality checks.
constexpr long long kPrefix = 1 << 16;
constexpr int kSetupRounds = 5;
constexpr int kBlock = 4096;
constexpr unsigned long long kSampleEvery = 64;
constexpr int kTracedPasses = 3;

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

Rng workload_rng(const Workload& w, std::uint64_t seed) {
  return Rng(replicate_seed(experiment_id("e2e/" + std::string(w.name)),
                            cell_id({seed}), 0));
}

StoreConfig store_config(const Workload& w) {
  StoreConfig c;
  c.m = w.m;
  c.keys = kKeysPerServer * w.m;
  c.zipf_s = w.zipf_s;
  c.strategy = ReplicationStrategy::kOverlapping;
  c.k = w.k;
  return c;
}

StreamConfig stream_config(const Workload& w, long long n) {
  StreamConfig c;
  c.lambda = w.lambda;
  c.requests = n;
  c.dist = ServiceDist::kExponential;
  return c;
}

ShardedEngine::Options shard_options(int workers) {
  ShardedEngine::Options o;
  o.shards = kShards;
  o.shard_workers = workers;
  return o;
}

std::unique_ptr<Dispatcher> eft_for_shard(int /*shard*/) {
  return make_eft_min();
}

/// cluster_sim's exponential service draw (mean 1, clamped away from 0),
/// so the traced loops consume the RNG draw for draw.
double draw_service(Rng& rng) {
  const double p = rng.exponential(1.0);
  return p > 1e-9 ? p : 1e-9;
}

/// bench_ext_adaptive's scenario at benchmark scale: Poisson arrivals,
/// exponential service, keys uniform over 4m owned by key mod m, a seeded
/// crash/repair plan over 1.5x the arrival horizon, backoff recovery, and
/// the controller free to move k within [2, 5].
ControlCase make_case(const Workload& w, long long n, Rng& rng) {
  ControlCase c;
  c.m = w.m;
  c.initial = LayoutSpec{ReplicationStrategy::kOverlapping, w.k};
  c.control.k_min = 2;
  c.control.k_max = 5;
  c.recovery.kind = RecoveryKind::kBackoff;
  FaultModelConfig fm;
  fm.mean_up = 24.0;
  fm.mean_down = 2.0;
  fm.horizon = 1.5 * static_cast<double>(n) / w.lambda;
  c.plan = FaultPlan::random(w.m, fm, rng);
  c.release.reserve(static_cast<std::size_t>(n));
  c.proc.reserve(static_cast<std::size_t>(n));
  c.key.reserve(static_cast<std::size_t>(n));
  double t = 0;
  for (long long i = 0; i < n; ++i) {
    t += rng.exponential(w.lambda);
    c.release.push_back(t);
    c.proc.push_back(rng.exponential(1.0));
    c.key.push_back(static_cast<int>(rng.uniform_int(0, 4 * w.m - 1)));
  }
  return c;
}

/// Builds an input kSetupRounds times from the same RNG state — every round
/// yields the identical object — and stores the median build time, so one
/// stalled round does not read as a set-up regression. `rng` ends where
/// the last build left it.
template <typename T, typename Build>
T build_timed(Rng& rng, double* setup_s, Build build) {
  const Rng start = rng;
  std::optional<T> out;
  std::vector<double> times;
  for (int round = 0; round < kSetupRounds; ++round) {
    rng = start;
    out.reset();
    const auto t0 = Clock::now();
    out.emplace(build(rng));
    times.push_back(secs(Clock::now() - t0));
  }
  *setup_s = median(times);
  return std::move(*out);
}

/// Peak resident set of this process image, in MiB. Linux carries
/// ru_maxrss over exec, so a rep launched from a larger process would
/// report its launcher's size; VmHWM starts afresh with the new image.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// --- Canonical reports --------------------------------------------------------
//
// Every field at full precision (shortest round-trip digits), vectors as a
// hash of their bit patterns: a one-ulp difference anywhere changes the
// string. The library's own str() prints 6 significant digits, too few to
// compare runs bitwise.

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  return h;
}

std::string hash_of(const std::vector<double>& v) {
  return json_hex(fnv1a(v.data(), v.size() * sizeof(double)));
}

std::string canonical(const SimReport& r) {
  std::ostringstream out;
  out << "requests=" << r.requests << " mean=" << json_num(r.mean_latency)
      << " p50=" << json_num(r.p50) << " p90=" << json_num(r.p90)
      << " p99=" << json_num(r.p99) << " max=" << json_num(r.max_latency)
      << " makespan=" << json_num(r.makespan)
      << " utilization=" << hash_of(r.utilization);
  return out.str();
}

std::string canonical(const StreamReport& r) {
  return canonical(r.sim) + " p999=" + json_num(r.p999) +
         " quantiles=" + (r.exact_quantiles ? "exact" : "p2") +
         " peak_backlog=" + std::to_string(r.peak_backlog);
}

std::string canonical(const AdaptiveRunReport& r) {
  const std::string log = r.log.str();
  std::ostringstream out;
  out << "requests=" << r.requests << " completed=" << r.completed
      << " dropped=" << r.dropped << " parked=" << r.parked
      << " retried=" << r.retried << " wasted=" << json_num(r.wasted_work)
      << " fmax=" << json_num(r.fmax) << " mean=" << json_num(r.mean_flow)
      << " makespan=" << json_num(r.makespan) << " decisions=" << r.decisions
      << " switches=" << r.switches << " fallbacks=" << r.fallbacks
      << " setup=" << json_num(r.setup_total)
      << " layout=" << r.final_layout.str() << " flows=" << hash_of(r.flows)
      << " log=" << json_hex(fnv1a(log.data(), log.size()));
  return out.str();
}

// --- Tracing ------------------------------------------------------------------

/// Spans kept in memory and written once at exit. A span's parent is the
/// span that contains it (-1 for a root).
class Spans {
 public:
  int add(std::string_view name, int parent, Clock::time_point start,
          Clock::time_point end) {
    spans_.push_back(Span{name, parent, start, end});
    return static_cast<int>(spans_.size()) - 1;
  }
  int open(std::string_view name, int parent) {
    const auto now = Clock::now();
    return add(name, parent, now, now);
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = Clock::now(); }

  double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return secs(s.end - s.start);
  }
  /// Total duration of the spans called `name` that lie inside `root`.
  double seconds_in(std::string_view name, int root) const {
    double total = 0;
    for (const Span& s : spans_) {
      if (s.name != name) continue;
      int p = s.parent;
      while (p >= 0 && p != root) p = spans_[static_cast<std::size_t>(p)].parent;
      if (p == root) total += secs(s.end - s.start);
    }
    return total;
  }

  /// Chrome trace_event JSON ("X" complete events, microseconds).
  void write(const std::string& path, std::string_view workload) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    const Clock::time_point t0 = spans_.empty() ? Clock::now() : spans_[0].start;
    const auto us = [&](Clock::time_point t) {
      return json_num(std::round(secs(t - t0) * 1e9) / 1e3);
    };
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << json_escape(s.name)
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << us(s.start) << ", \"dur\": "
          << json_num(std::round(secs(s.end - s.start) * 1e9) / 1e3)
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"workload\": \"" << json_escape(workload) << "\"}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("short write to " + path);
  }

 private:
  struct Span {
    std::string_view name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans_;
};

/// What timing one call costs, measured on a call that does nothing.
/// `inside` is the interval a timer reports for zero work and is subtracted
/// from every interval; `total` is the whole wall time one timed call adds,
/// which the traced totals list as their "timers" part.
struct TimerCost {
  double inside = 0;
  double total = 0;
};

void do_nothing() {}
void (*volatile g_do_nothing)() = do_nothing;  // opaque to the optimizer

const TimerCost& timer_cost() {
  static const TimerCost cost = [] {
    constexpr int kCalls = 20000;
    std::vector<double> inside;
    std::vector<double> total;
    for (int trial = 0; trial < 9; ++trial) {
      const auto a = Clock::now();
      for (int i = 0; i < kCalls; ++i) g_do_nothing();
      const auto b = Clock::now();
      double timed = 0;
      for (int i = 0; i < kCalls; ++i) {
        const auto t0 = Clock::now();
        g_do_nothing();
        timed += secs(Clock::now() - t0);
      }
      const auto c = Clock::now();
      inside.push_back(timed / kCalls);
      total.push_back((secs(c - b) - secs(b - a)) / kCalls);
    }
    return TimerCost{median(inside), median(total)};
  }();
  return cost;
}

/// Times one call in `every` and scales the sum up to all calls. Sampling
/// suits calls of even cost that are too short to time one by one (a 30 ns
/// dispatch beside a 40 ns clock read). Calls with a heavy-tailed cost,
/// like observer sinks that now and then grow a large buffer, need
/// every = 1: a sample misses the rare expensive call.
class SampledTimer {
 public:
  explicit SampledTimer(unsigned long long every) : every_(every) {}

  template <typename F>
  void time(F&& f) {
    ++calls_;
    if (--countdown_ != 0) {
      f();
      return;
    }
    countdown_ = every_;
    const auto t0 = Clock::now();
    f();
    timed_s_ += secs(Clock::now() - t0) - timer_cost().inside;
    ++timed_;
  }
  /// Estimated time spent inside the calls, the timer's cost excluded.
  double seconds() const {
    if (timed_ == 0) return 0.0;
    return std::max(0.0, timed_s_) * static_cast<double>(calls_) /
           static_cast<double>(timed_);
  }
  /// Wall time the timer itself added.
  double overhead_s() const {
    return static_cast<double>(timed_) * timer_cost().total;
  }

 private:
  unsigned long long every_;
  unsigned long long countdown_ = 1;  // the first call is timed
  unsigned long long calls_ = 0;
  unsigned long long timed_ = 0;
  double timed_s_ = 0;
};

/// Forwards to a real dispatcher, timing a sample of dispatch() calls and
/// counting the candidates (|M_i|) each one scans.
class SampledDispatcher final : public Dispatcher {
 public:
  explicit SampledDispatcher(std::unique_ptr<Dispatcher> inner)
      : inner_(std::move(inner)) {}

  void reset(int m) override { inner_->reset(m); }
  int dispatch(const Task& t, const MachineState& state) override {
    candidates_ += static_cast<unsigned long long>(t.eligible.size());
    int machine = -1;
    timer_.time([&] { machine = inner_->dispatch(t, state); });
    return machine;
  }
  bool needs_queue_depths() const override {
    return inner_->needs_queue_depths();
  }
  std::string name() const override { return inner_->name(); }

  const SampledTimer& timer() const { return timer_; }
  unsigned long long candidates() const { return candidates_; }

 private:
  std::unique_ptr<Dispatcher> inner_;
  SampledTimer timer_{kSampleEvery};
  unsigned long long candidates_ = 0;
};

/// Forwards an event stream to one sink, timing every call.
class TimedSink final : public SchedObserver {
 public:
  explicit TimedSink(SchedObserver& inner) : inner_(inner) {}

  void on_run_begin(const RunInfo& info) override { inner_.on_run_begin(info); }
  void on_event(const ObsEvent& event) override {
    events_.time([&] { inner_.on_event(event); });
  }
  void on_run_end(double makespan) override {
    const auto t0 = Clock::now();
    inner_.on_run_end(makespan);
    run_end_s_ += secs(Clock::now() - t0);
  }

  const SampledTimer& events() const { return events_; }
  double run_end_s() const { return run_end_s_; }

 private:
  SchedObserver& inner_;
  SampledTimer events_{1};
  double run_end_s_ = 0;
};

// The per-layer metrics of the traced run, each with its unit. Every traced
// rep reports all of them; a layer the workload does not pass through reads
// 0.
constexpr std::pair<std::string_view, std::string_view> kLayerMetrics[] = {
    {"workload.gen_ns_per_req", "ns/req"},
    {"kvstore.route_ns_per_req", "ns/req"},
    {"kvstore.setup_s", "s"},
    {"sched.release_ns_per_req", "ns/req"},
    {"sched.dispatch_ns_per_req", "ns/req"},
    {"sched.settle_ns_per_req", "ns/req"},
    {"sched.candidates_per_req", "count"},
    {"sched.peak_backlog", "count"},
    {"sched.engine_mb", "MB"},
    {"sched.block_us_p50", "us"},
    {"sched.block_us_p99", "us"},
    {"obs.aggregate_ns_per_req", "ns/req"},
    {"obs.metrics_ns_per_req", "ns/req"},
    {"obs.events_per_req", "count"},
    {"check.audit_ns_per_req", "ns/req"},
    {"check.run_end_s", "s"},
    {"check.violations", "count"},
    {"shard.release_ns_per_req", "ns/req"},
    {"shard.baseline_ns_per_req", "ns/req"},
    {"shard.overhead_ratio", "ratio"},
    {"shard.sink_ns_per_req", "ns/req"},
    {"shard.boundary_frac", "fraction"},
    {"shard.stolen_frac", "fraction"},
    {"shard.cpu_per_wall", "ratio"},
    {"fault.engine_ns_per_req", "ns/req"},
    {"fault.retried_per_req", "count"},
    {"fault.parked", "count"},
    {"fault.dropped", "count"},
    {"fault.wasted_work_frac", "fraction"},
    {"fault.useful_attempt_ratio", "ratio"},
    {"control.decide_us_per_epoch", "us"},
    {"control.share", "fraction"},
    {"control.decisions", "count"},
    {"control.switches", "count"},
    {"control.fallbacks", "count"},
    {"control.moved_owners", "count"},
    {"residual_frac", "fraction"},
    {"trace_overhead_frac", "fraction"},
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

Check expect_equal(std::string name, const std::string& got,
                   const std::string& want) {
  if (got == want) return Check{std::move(name), true, ""};
  return Check{std::move(name), false, "got '" + got + "', want '" + want + "'"};
}

/// One rep's outcome, printed as one JSON line.
struct Rep {
  std::string report;       ///< canonical(); must match across reps.
  long long requests = 0;
  long long served = 0;     ///< Completed requests.
  long long dropped = 0;
  double call_s = 0;        ///< Wall time of the timed entry-point call.
  double setup_s = 0;
  double rss_mb = 0;
  double fmax = 0;
  double mean_flow = 0;
  double p99_flow = 0;
  double p999_flow = 0;
  std::vector<Check> checks;

  // Traced reps only: the layer metrics, the disjoint parts that should sum
  // to the traced total, and that total.
  std::map<std::string, double, std::less<>> layers;
  std::vector<std::pair<std::string, double>> parts;
  double traced_total_s = 0;

  void set_layer(std::string_view name, double value) {
    if (std::none_of(std::begin(kLayerMetrics), std::end(kLayerMetrics),
                     [&](const auto& metric) { return metric.first == name; })) {
      throw std::logic_error("unknown layer metric " + std::string(name));
    }
    layers[std::string(name)] = value;
  }
  void add_part(std::string name, double seconds) {
    parts.emplace_back(std::move(name), seconds);
  }
  /// residual_frac: the traced total minus the measured parts.
  void close_parts() {
    double sum = 0;
    for (const auto& [name, s] : parts) sum += s;
    set_layer("residual_frac",
              traced_total_s > 0 ? (traced_total_s - sum) / traced_total_s : 0);
  }
};

double per_req_ns(double seconds, long long n) {
  return n > 0 ? seconds * 1e9 / static_cast<double>(n) : 0.0;
}

void set_block_quantiles(Rep& rep, const std::vector<double>& block_us) {
  if (block_us.empty()) return;
  rep.set_layer("sched.block_us_p50", quantile(block_us, 0.50));
  rep.set_layer("sched.block_us_p99", quantile(block_us, 0.99));
}

/// The request loop of the simulate_cluster* functions, cut into blocks of
/// kBlock requests so each layer can be timed from outside: generate
/// (arrival gap, key, service — their draw order, so the RNG stream is
/// consumed identically), route (key -> replica set), release into the
/// engine, aggregate. One span per phase per block, named after the layer;
/// each block's wall time goes to `block_us`.
template <typename Release, typename Aggregate>
void run_blocks(const Workload& w, const KeyValueStore& store, long long n,
                Rng& rng, Spans& spans, int root, std::string_view engine_layer,
                std::vector<double>& block_us, Release&& release,
                Aggregate&& aggregate) {
  std::vector<double> arrival(kBlock);
  std::vector<double> service(kBlock);
  std::vector<int> key(kBlock);
  std::vector<const ProcSet*> eligible(kBlock);
  std::vector<Assignment> assigned(kBlock);
  double t = 0;
  for (long long base = 0; base < n; base += kBlock) {
    const auto len = static_cast<std::size_t>(std::min<long long>(kBlock, n - base));
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < len; ++i) {
      t += rng.exponential(w.lambda);
      arrival[i] = t;
      key[i] = store.sample_key(rng);
      service[i] = draw_service(rng);
    }
    const auto t1 = Clock::now();
    for (std::size_t i = 0; i < len; ++i) {
      eligible[i] = &store.replicas_of_key(key[i]);
    }
    const auto t2 = Clock::now();
    for (std::size_t i = 0; i < len; ++i) {
      assigned[i] = release(base + static_cast<long long>(i), arrival[i],
                            service[i], *eligible[i]);
    }
    const auto t3 = Clock::now();
    for (std::size_t i = 0; i < len; ++i) {
      aggregate(arrival[i], service[i], assigned[i]);
    }
    const auto t4 = Clock::now();
    const int block = spans.add("block", root, t0, t4);
    spans.add("workload", block, t0, t1);
    spans.add("kvstore", block, t1, t2);
    spans.add(engine_layer, block, t2, t3);
    spans.add("obs", block, t3, t4);
    block_us.push_back(secs(t4 - t0) * 1e6);
  }
}

/// simulate_cluster_streaming's sketch-regime report from its aggregates.
StreamReport stream_report(long long n, const StreamingQuantiles& sketch,
                           const std::vector<double>& busy, double makespan,
                           std::size_t peak_backlog) {
  StreamReport r;
  r.sim.requests = static_cast<int>(n);
  r.exact_quantiles = false;
  r.sim.mean_latency = sketch.mean();
  r.sim.p50 = sketch.p50();
  r.sim.p90 = sketch.p90();
  r.sim.p99 = sketch.p99();
  r.sim.max_latency = sketch.max();
  r.p999 = sketch.p999();
  r.sim.makespan = makespan;
  r.sim.utilization.resize(busy.size());
  for (std::size_t j = 0; j < busy.size(); ++j) {
    r.sim.utilization[j] = makespan > 0 ? busy[j] / makespan : 0.0;
  }
  r.peak_backlog = peak_backlog;
  return r;
}

// --- Stream workloads ---------------------------------------------------------

/// The exact-quantile contract: up to StreamConfig::exact_quantile_cap
/// requests the streaming report equals simulate_cluster's bitwise.
Check stream_prefix_matches_batch(const Workload& w, std::uint64_t seed) {
  Rng rng = workload_rng(w, seed);
  const KeyValueStore store(store_config(w), rng);
  Rng batch_rng = rng;
  auto d_stream = make_eft_min();
  const StreamReport s =
      simulate_cluster_streaming(store, stream_config(w, kPrefix), *d_stream, rng);
  SimConfig bc;
  bc.lambda = w.lambda;
  bc.requests = static_cast<int>(kPrefix);
  bc.dist = ServiceDist::kExponential;
  auto d_batch = make_eft_min();
  const SimReport b = simulate_cluster(store, bc, *d_batch, batch_rng);
  return expect_equal("stream-prefix-equals-batch", canonical(s.sim),
                      canonical(b));
}

StreamReport traced_stream(const Workload& w, long long n,
                           const KeyValueStore& store, Rng& rng, Spans& spans,
                           Rep& rep) {
  if (n <= kPrefix) {
    throw std::invalid_argument("traced stream loop covers the sketch regime only");
  }
  SampledDispatcher eft(make_eft_min());
  StreamingEngine engine(w.m, eft);
  StreamingQuantiles sketch;
  std::vector<double> busy(static_cast<std::size_t>(w.m), 0.0);
  std::vector<double> block_us;

  const int root = spans.open("simulate_cluster_streaming (traced)", -1);
  run_blocks(
      w, store, n, rng, spans, root, "sched", block_us,
      [&](long long id, double r, double p, const ProcSet& set) {
        return engine.release(r, p, set, id, 1.0);
      },
      [&](double r, double p, const Assignment& a) {
        sketch.add(a.start + p - r);
        busy[static_cast<std::size_t>(a.machine)] += p;
      });
  const std::size_t live_bytes = engine.memory_bytes();
  const int drain = spans.open("sched", root);
  engine.drain();
  spans.close(drain);
  double makespan = 0;
  for (double c : engine.completions()) makespan = std::max(makespan, c);
  StreamReport report =
      stream_report(n, sketch, busy, makespan, engine.peak_in_flight());
  report.memory_bytes = live_bytes;
  spans.close(root);

  rep.traced_total_s = spans.seconds(root);
  const double gen = spans.seconds_in("workload", root);
  const double route = spans.seconds_in("kvstore", root);
  // The dispatch timer runs inside the release spans; its cost is moved
  // to a part of its own.
  const double timers = eft.timer().overhead_s();
  const double release = spans.seconds_in("sched", root) - timers;
  const double aggregate = spans.seconds_in("obs", root);
  const double dispatch = eft.timer().seconds();
  rep.add_part("workload", gen);
  rep.add_part("kvstore", route);
  rep.add_part("sched", release);
  rep.add_part("obs", aggregate);
  rep.add_part("timers", timers);
  rep.set_layer("workload.gen_ns_per_req", per_req_ns(gen, n));
  rep.set_layer("kvstore.route_ns_per_req", per_req_ns(route, n));
  rep.set_layer("sched.release_ns_per_req", per_req_ns(release, n));
  rep.set_layer("sched.dispatch_ns_per_req", per_req_ns(dispatch, n));
  rep.set_layer("sched.settle_ns_per_req", per_req_ns(release - dispatch, n));
  rep.set_layer("sched.candidates_per_req",
                static_cast<double>(eft.candidates()) / static_cast<double>(n));
  rep.set_layer("sched.peak_backlog", static_cast<double>(report.peak_backlog));
  rep.set_layer("sched.engine_mb", static_cast<double>(live_bytes) / 1048576.0);
  rep.set_layer("obs.aggregate_ns_per_req", per_req_ns(aggregate, n));
  set_block_quantiles(rep, block_us);
  return report;
}

void fill_from_stream(Rep& rep, const StreamReport& r, long long n) {
  rep.report = canonical(r);
  rep.served = n;
  rep.fmax = r.sim.max_latency;
  rep.mean_flow = r.sim.mean_latency;
  rep.p99_flow = r.sim.p99;
  rep.p999_flow = r.p999;
}

/// The traced pass must reproduce the untraced call's report bitwise.
void check_traced_report(Rep& rep, const std::string& traced) {
  rep.checks.push_back(expect_equal("traced-report-equals-untraced", traced, rep.report));
}

Rep run_stream(const Workload& w, long long n, std::uint64_t seed, Spans* spans) {
  Rep rep;
  Rng rng = workload_rng(w, seed);
  const KeyValueStore store = build_timed<KeyValueStore>(
      rng, &rep.setup_s, [&](Rng& r) { return KeyValueStore(store_config(w), r); });
  Rng traced_rng = rng;
  auto eft = make_eft_min();
  const auto t0 = Clock::now();
  const StreamReport report =
      simulate_cluster_streaming(store, stream_config(w, n), *eft, rng);
  rep.call_s = secs(Clock::now() - t0);
  rep.rss_mb = peak_rss_mb();
  fill_from_stream(rep, report, n);
  rep.checks.push_back(stream_prefix_matches_batch(w, seed));
  if (spans != nullptr) {
    check_traced_report(rep, canonical(traced_stream(w, n, store, traced_rng, *spans, rep)));
    rep.set_layer("kvstore.setup_s", rep.setup_s);
  }
  return rep;
}

// --- shard-ring ---------------------------------------------------------------

/// The sharded report is a pure function of the release sequence and the
/// shard options, never of the worker count.
Check shard_prefix_worker_invariant(const Workload& w, std::uint64_t seed) {
  Rng rng = workload_rng(w, seed);
  const KeyValueStore store(store_config(w), rng);
  std::string reports[2];
  for (int workers = 1; workers <= 2; ++workers) {
    Rng r = rng;
    reports[workers - 1] = canonical(simulate_cluster_streaming_sharded(
        store, stream_config(w, kPrefix), eft_for_shard, shard_options(workers), r));
  }
  return expect_equal("shard-prefix-workers-1-vs-2", reports[1], reports[0]);
}

StreamReport traced_shard(const Workload& w, long long n,
                          const KeyValueStore& store, Rng& rng, Spans& spans,
                          Rep& rep) {
  if (n <= kPrefix) {
    throw std::invalid_argument("traced shard loop covers the sketch regime only");
  }
  Rng baseline_rng = rng;
  ShardedEngine engine(w.m, eft_for_shard, shard_options(kShardWorkers));
  StreamingQuantiles sketch;
  std::vector<double> busy(static_cast<std::size_t>(w.m), 0.0);
  SampledTimer sink(kSampleEvery);
  engine.set_flow_sink([&](const ShardedEngine::FlowEvent& e) {
    sink.time([&] {
      sketch.add(e.start + e.proc - e.release);
      busy[static_cast<std::size_t>(e.machine)] += e.proc;
    });
  });
  std::vector<double> block_us;

  const double cpu0 = process_cpu_s();
  const int root =
      spans.open("simulate_cluster_streaming_sharded (traced)", -1);
  run_blocks(
      w, store, n, rng, spans, root, "shard", block_us,
      [&](long long, double r, double p, const ProcSet& set) {
        engine.release(r, p, set, 1.0);
        return Assignment{};
      },
      [](double, double, const Assignment&) {});
  const std::size_t live_bytes = engine.memory_bytes();
  const int drain = spans.open("shard", root);
  engine.drain();
  spans.close(drain);
  StreamReport report =
      stream_report(n, sketch, busy, engine.makespan(), engine.peak_backlog());
  report.memory_bytes = live_bytes;
  spans.close(root);
  const double cpu_s = process_cpu_s() - cpu0;

  // The same stream through one StreamingEngine: what sharding costs.
  const int base = spans.open("baseline StreamingEngine", -1);
  {
    auto eft = make_eft_min();
    StreamingEngine single(w.m, *eft);
    std::vector<double> unused;
    run_blocks(
        w, store, n, baseline_rng, spans, base, "sched", unused,
        [&](long long id, double r, double p, const ProcSet& set) {
          return single.release(r, p, set, id, 1.0);
        },
        [](double, double, const Assignment&) {});
    const int single_drain = spans.open("sched", base);
    single.drain();
    spans.close(single_drain);
  }
  spans.close(base);

  rep.traced_total_s = spans.seconds(root);
  const double gen = spans.seconds_in("workload", root);
  const double route = spans.seconds_in("kvstore", root);
  const double timers = sink.overhead_s();  // runs inside the shard spans
  const double release = spans.seconds_in("shard", root) - timers;
  const double baseline = spans.seconds_in("sched", base);
  rep.add_part("workload", gen);
  rep.add_part("kvstore", route);
  rep.add_part("shard", release);
  rep.add_part("timers", timers);
  rep.set_layer("workload.gen_ns_per_req", per_req_ns(gen, n));
  rep.set_layer("kvstore.route_ns_per_req", per_req_ns(route, n));
  rep.set_layer("shard.release_ns_per_req", per_req_ns(release, n));
  rep.set_layer("shard.baseline_ns_per_req", per_req_ns(baseline, n));
  rep.set_layer("shard.overhead_ratio", baseline > 0 ? release / baseline : 0);
  rep.set_layer("shard.sink_ns_per_req", per_req_ns(sink.seconds(), n));
  rep.set_layer("shard.boundary_frac", static_cast<double>(engine.boundary_tasks()) /
                                           static_cast<double>(n));
  rep.set_layer("shard.stolen_frac", static_cast<double>(engine.stolen_tasks()) /
                                         static_cast<double>(n));
  rep.set_layer("shard.cpu_per_wall", cpu_s / rep.traced_total_s);
  rep.set_layer("sched.peak_backlog", static_cast<double>(report.peak_backlog));
  rep.set_layer("sched.engine_mb", static_cast<double>(live_bytes) / 1048576.0);
  set_block_quantiles(rep, block_us);
  return report;
}

Rep run_shard(const Workload& w, long long n, std::uint64_t seed, Spans* spans) {
  Rep rep;
  Rng rng = workload_rng(w, seed);
  const KeyValueStore store = build_timed<KeyValueStore>(
      rng, &rep.setup_s, [&](Rng& r) { return KeyValueStore(store_config(w), r); });
  Rng traced_rng = rng;
  const auto t0 = Clock::now();
  const StreamReport report = simulate_cluster_streaming_sharded(
      store, stream_config(w, n), eft_for_shard, shard_options(kShardWorkers), rng);
  rep.call_s = secs(Clock::now() - t0);
  rep.rss_mb = peak_rss_mb();
  fill_from_stream(rep, report, n);
  rep.checks.push_back(shard_prefix_worker_invariant(w, seed));
  if (spans != nullptr) {
    check_traced_report(rep, canonical(traced_shard(w, n, store, traced_rng, *spans, rep)));
    rep.set_layer("kvstore.setup_s", rep.setup_s);
  }
  return rep;
}

// --- batch-audited ------------------------------------------------------------

SimConfig batch_config(const Workload& w, long long n) {
  SimConfig c;
  c.lambda = w.lambda;
  c.requests = static_cast<int>(n);
  c.dist = ServiceDist::kExponential;
  return c;
}

/// simulate_cluster's loop, re-driven in blocks with both sinks attached,
/// each behind a timer. The sinks run inside OnlineEngine::release, so
/// their time (and their timers') is taken out of the engine's.
SimReport traced_batch(const Workload& w, long long n,
                       const KeyValueStore& store, Rng& rng, Spans& spans,
                       Rep& rep) {
  SampledDispatcher eft(make_eft_min());
  MetricsCollector metrics;
  InvariantAuditor auditor;
  TimedSink timed_metrics(metrics);
  TimedSink timed_auditor(auditor);
  MulticastObserver observer({&timed_metrics, &timed_auditor});
  OnlineEngine engine(w.m, eft);
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(n));
  std::vector<double> busy(static_cast<std::size_t>(w.m), 0.0);
  std::vector<double> block_us;

  const int root = spans.open("simulate_cluster (traced)", -1);
  observer.on_run_begin(RunInfo{w.m, eft.name(), {}});
  engine.set_observer(&observer);
  run_blocks(
      w, store, n, rng, spans, root, "sched", block_us,
      [&](long long, double r, double p, const ProcSet& set) {
        return engine.release(Task{.release = r, .proc = p, .eligible = set});
      },
      [&](double r, double p, const Assignment& a) {
        latencies.push_back(a.start + p - r);
        busy[static_cast<std::size_t>(a.machine)] += p;
      });
  const int stats = spans.open("obs", root);
  SimReport report;
  report.requests = static_cast<int>(n);
  report.mean_latency = mean(latencies);
  report.p50 = quantile(latencies, 0.50);
  report.p90 = quantile(latencies, 0.90);
  report.p99 = quantile(latencies, 0.99);
  report.max_latency = quantile(latencies, 1.0);
  for (double c : engine.completions()) report.makespan = std::max(report.makespan, c);
  for (double b : busy) {
    report.utilization.push_back(report.makespan > 0 ? b / report.makespan : 0.0);
  }
  spans.close(stats);
  const int finish = spans.open("sched", root);
  engine.finish_observation();
  spans.close(finish);
  observer.on_run_end(report.makespan);
  spans.close(root);

  rep.traced_total_s = spans.seconds(root);
  const double metrics_s = timed_metrics.events().seconds();
  const double audit_s = timed_auditor.events().seconds();
  const double run_end = timed_metrics.run_end_s() + timed_auditor.run_end_s();
  const double timers = timed_metrics.events().overhead_s() +
                        timed_auditor.events().overhead_s() + eft.timer().overhead_s();
  const double gen = spans.seconds_in("workload", root);
  const double route = spans.seconds_in("kvstore", root);
  const double release =
      spans.seconds_in("sched", root) - metrics_s - audit_s - timers;
  const double aggregate = spans.seconds_in("obs", root);
  const double dispatch = eft.timer().seconds();
  rep.add_part("workload", gen);
  rep.add_part("kvstore", route);
  rep.add_part("sched", release);
  rep.add_part("obs.aggregate", aggregate);
  rep.add_part("obs.metrics", metrics_s);
  rep.add_part("check.audit", audit_s);
  rep.add_part("check.run_end", run_end);
  rep.add_part("timers", timers);
  rep.set_layer("workload.gen_ns_per_req", per_req_ns(gen, n));
  rep.set_layer("kvstore.route_ns_per_req", per_req_ns(route, n));
  rep.set_layer("sched.release_ns_per_req", per_req_ns(release, n));
  rep.set_layer("sched.dispatch_ns_per_req", per_req_ns(dispatch, n));
  rep.set_layer("sched.settle_ns_per_req", per_req_ns(release - dispatch, n));
  rep.set_layer("sched.candidates_per_req",
                static_cast<double>(eft.candidates()) / static_cast<double>(n));
  rep.set_layer("sched.peak_backlog", metrics.max_backlog());
  rep.set_layer("obs.aggregate_ns_per_req", per_req_ns(aggregate, n));
  rep.set_layer("obs.metrics_ns_per_req", per_req_ns(metrics_s, n));
  rep.set_layer("obs.events_per_req", static_cast<double>(metrics.events()) /
                                          static_cast<double>(n));
  rep.set_layer("check.audit_ns_per_req", per_req_ns(audit_s, n));
  rep.set_layer("check.run_end_s", run_end);
  rep.set_layer("check.violations", static_cast<double>(auditor.violations().size()));
  set_block_quantiles(rep, block_us);
  return report;
}

/// The untraced call. Its sinks hold the whole run, so they are checked and
/// freed here, before a traced pass would run beside them.
void batch_call(const Workload& w, long long n, const KeyValueStore& store,
                Rng rng, Rep& rep) {
  MetricsCollector metrics;
  InvariantAuditor auditor;
  MulticastObserver observer({&metrics, &auditor});
  auto eft = make_eft_min();
  const auto t0 = Clock::now();
  const SimReport report =
      simulate_cluster(store, batch_config(w, n), *eft, rng, &observer);
  rep.call_s = secs(Clock::now() - t0);
  rep.rss_mb = peak_rss_mb();
  rep.report = canonical(report);
  rep.served = n;
  rep.fmax = report.max_latency;
  rep.mean_flow = report.mean_latency;
  rep.p99_flow = report.p99;
  rep.p999_flow = metrics.flow_p999();  // SimReport stops at p99
  rep.checks.push_back(expect_equal(
      "auditor-violations", std::to_string(auditor.violations().size()), "0"));
  if (!auditor.ok()) rep.checks.back().detail += " first: " + auditor.violations()[0];
  rep.checks.push_back(expect_equal("metrics-completed-equals-requests",
                                    std::to_string(metrics.completed()),
                                    std::to_string(n)));
  rep.checks.push_back(expect_equal("metrics-max-flow-equals-fmax",
                                    json_num(metrics.max_flow()),
                                    json_num(report.max_latency)));
}

Rep run_batch(const Workload& w, long long n, std::uint64_t seed, Spans* spans) {
  Rep rep;
  Rng rng = workload_rng(w, seed);
  const KeyValueStore store = build_timed<KeyValueStore>(
      rng, &rep.setup_s, [&](Rng& r) { return KeyValueStore(store_config(w), r); });
  batch_call(w, n, store, rng, rep);
  if (spans != nullptr) {
    check_traced_report(rep, canonical(traced_batch(w, n, store, rng, *spans, rep)));
    rep.set_layer("kvstore.setup_s", rep.setup_s);
  }
  return rep;
}

// --- faults-adaptive ------------------------------------------------------------

/// The log with one decision (and its observation) left out: the planted
/// corruption the control audit must catch.
ControlLog without_middle_decision(const ControlLog& log) {
  ControlLog out;
  const std::size_t skip = log.decisions().size() / 2;
  for (std::size_t e = 0; e < log.decisions().size(); ++e) {
    if (e != skip) out.record(log.observations()[e], log.decisions()[e]);
  }
  for (const ControlLog::SetupCharge& c : log.charges()) {
    out.record_charge(c.owner, c.epoch, c.amount);
  }
  return out;
}

AuditConfig fault_audit_config() {
  AuditConfig config;
  config.fault_mode = true;
  config.infer_from_algo = false;
  return config;
}

/// run_adaptive's loop, re-driven with timers around the calls into each
/// layer: the controller at each decision epoch, actuation (replica sets
/// and setup charges, computed a block at a time between epochs), and the
/// fault engine with the auditor attached. The auditor runs inside
/// OnlineEngine::release, so its time (and its timer's) is taken out of
/// the engine's.
AdaptiveRunReport traced_faults(const ControlCase& c, Spans& spans, Rep& rep) {
  const int m = c.m;
  const int n = c.requests();
  SampledDispatcher eft(make_eft_min());
  InvariantAuditor auditor(fault_audit_config());
  TimedSink timed_auditor(auditor);
  ReplicationController controller(m, c.initial, c.control);
  OnlineEngine engine(m, eft);
  engine.set_faults(&c.plan, c.recovery);
  ControlLog log;
  std::vector<int> pending(static_cast<std::size_t>(m), -1);
  std::vector<Task> block;
  double next_epoch = c.control.period;
  double decide_s = 0;

  const int root = spans.open("run_adaptive (traced)", -1);
  timed_auditor.on_run_begin(RunInfo{m, eft.name(), {}});
  engine.set_observer(&timed_auditor);
  for (int i = 0; i < n;) {
    const int epoch_span = spans.open("control", root);
    for (; next_epoch <= c.release[static_cast<std::size_t>(i)];
         next_epoch += c.control.period) {
      ControlObservation obs;
      obs.time = next_epoch;
      obs.backlog = engine.profile(next_epoch);
      obs.up.resize(static_cast<std::size_t>(m));
      for (int j = 0; j < m; ++j) {
        obs.up[static_cast<std::size_t>(j)] = c.plan.is_up(j, next_epoch) ? 1 : 0;
      }
      obs.arrival_rate = static_cast<double>(i) / next_epoch;
      const auto t0 = Clock::now();
      const ControlDecision d = controller.decide(obs);
      decide_s += secs(Clock::now() - t0);
      for (int o = d.moved_lo; o < d.moved_hi; ++o) {
        if (!(replica_set(d.from.strategy, o, d.from.k, m) ==
              replica_set(d.target.strategy, o, d.target.k, m))) {
          pending[static_cast<std::size_t>(o)] = d.epoch;
        }
      }
      log.record(obs, d);
    }
    spans.close(epoch_span);

    // The requests before the next epoch see one layout.
    const int actuate = spans.open("actuate", root);
    block.clear();
    for (; i < n && c.release[static_cast<std::size_t>(i)] < next_epoch &&
           block.size() < static_cast<std::size_t>(kBlock);
         ++i) {
      const int owner = c.key[static_cast<std::size_t>(i)] % m;
      double p = c.proc[static_cast<std::size_t>(i)];
      if (pending[static_cast<std::size_t>(owner)] >= 0) {
        p += c.control.setup_cost;
        log.record_charge(owner, pending[static_cast<std::size_t>(owner)],
                          c.control.setup_cost);
        pending[static_cast<std::size_t>(owner)] = -1;
      }
      block.push_back(Task{.release = c.release[static_cast<std::size_t>(i)],
                           .proc = p,
                           .eligible = controller.eligible_for_owner(owner)});
    }
    spans.close(actuate);
    const int release = spans.open("fault", root);
    for (Task& task : block) engine.release(std::move(task));
    spans.close(release);
  }

  AdaptiveRunReport report;
  report.requests = n;
  report.final_layout = controller.migrating() ? controller.target() : controller.active();
  const int drain = spans.open("fault", root);
  engine.drain_faults();
  spans.close(drain);
  const int outcome = spans.open("outcome", root);
  const FaultLog& flog = engine.fault_log();
  for (int i = 0; i < n; ++i) {
    if (flog.fate(i) == TaskFate::kCompleted) {
      report.flows.push_back(flog.completion(i) - c.release[static_cast<std::size_t>(i)]);
    }
  }
  const FaultStats& stats = flog.stats();
  report.completed = stats.completed;
  report.dropped = stats.dropped;
  report.parked = stats.parked;
  report.retried = stats.attempts + stats.parked - n;
  report.wasted_work = stats.wasted_work;
  if (!report.flows.empty()) {
    report.mean_flow = mean(report.flows);
    report.fmax = *std::max_element(report.flows.begin(), report.flows.end());
  }
  for (double done : engine.completions()) report.makespan = std::max(report.makespan, done);
  report.decisions = static_cast<int>(log.decisions().size());
  report.switches = log.switches();
  report.fallbacks = log.fallbacks();
  report.setup_total = log.setup_total();
  report.log = std::move(log);
  spans.close(outcome);
  const int finish = spans.open("fault", root);
  engine.finish_observation();
  spans.close(finish);
  timed_auditor.on_run_end(report.makespan);
  spans.close(root);

  rep.traced_total_s = spans.seconds(root);
  const double audit = timed_auditor.events().seconds();
  const double run_end = timed_auditor.run_end_s();
  const double timers = timed_auditor.events().overhead_s() + eft.timer().overhead_s();
  const double engine_s = spans.seconds_in("fault", root) - audit - timers;
  rep.add_part("control.decide", decide_s);
  rep.add_part("control.observe", spans.seconds_in("control", root) - decide_s);
  rep.add_part("control.actuate", spans.seconds_in("actuate", root));
  rep.add_part("fault.engine", engine_s);
  rep.add_part("fault.outcome", spans.seconds_in("outcome", root));
  rep.add_part("check.audit", audit);
  rep.add_part("check.run_end", run_end);
  rep.add_part("timers", timers);
  const double epochs =
      static_cast<double>(std::max<std::size_t>(1, report.log.decisions().size()));
  double work = 0;
  for (double p : c.proc) work += p;
  rep.set_layer("sched.dispatch_ns_per_req", per_req_ns(eft.timer().seconds(), n));
  rep.set_layer("sched.candidates_per_req",
                static_cast<double>(eft.candidates()) / static_cast<double>(n));
  rep.set_layer("check.audit_ns_per_req", per_req_ns(audit, n));
  rep.set_layer("check.run_end_s", run_end);
  rep.set_layer("check.violations", static_cast<double>(auditor.violations().size()));
  rep.set_layer("fault.engine_ns_per_req", per_req_ns(engine_s, n));
  rep.set_layer("fault.retried_per_req",
                static_cast<double>(report.retried) / static_cast<double>(n));
  rep.set_layer("fault.parked", static_cast<double>(report.parked));
  rep.set_layer("fault.dropped", static_cast<double>(report.dropped));
  rep.set_layer("fault.wasted_work_frac", work > 0 ? report.wasted_work / work : 0);
  rep.set_layer("fault.useful_attempt_ratio",
                static_cast<double>(report.completed) /
                    static_cast<double>(report.completed + report.retried));
  rep.set_layer("control.decide_us_per_epoch", decide_s * 1e6 / epochs);
  rep.set_layer("control.share", decide_s / rep.traced_total_s);
  rep.set_layer("control.decisions", static_cast<double>(report.decisions));
  rep.set_layer("control.switches", static_cast<double>(report.switches));
  rep.set_layer("control.fallbacks", static_cast<double>(report.fallbacks));
  rep.set_layer("control.moved_owners", static_cast<double>(report.log.moved_total()));
  return report;
}

/// The untraced call, checked; its auditor is freed before any traced pass.
void faults_call(const ControlCase& c, std::string_view plant, Rep& rep) {
  const long long n = c.requests();
  InvariantAuditor auditor(fault_audit_config());
  auto eft = make_eft_min();
  const auto t0 = Clock::now();
  AdaptiveRunReport report = run_adaptive(c, *eft, true, &auditor);
  rep.call_s = secs(Clock::now() - t0);
  rep.rss_mb = peak_rss_mb();
  if (plant == "ulp") {
    report.mean_flow = std::nextafter(report.mean_flow,
                                      std::numeric_limits<double>::infinity());
  } else if (plant == "drop-decision") {
    report.log = without_middle_decision(report.log);
  }
  auditor.check_control_run(report.log, c.control, c.m, c.initial);

  rep.report = canonical(report);
  rep.served = report.completed;
  rep.dropped = report.dropped;
  rep.fmax = report.fmax;
  rep.mean_flow = report.mean_flow;
  rep.p99_flow = quantile(report.flows, 0.99);
  rep.p999_flow = quantile(report.flows, 0.999);
  rep.checks.push_back(expect_equal("fault-and-control-audit-violations",
                                    std::to_string(auditor.violations().size()), "0"));
  if (!auditor.ok()) rep.checks.back().detail += " first: " + auditor.violations()[0];
  rep.checks.push_back(expect_equal("completed-plus-dropped-equals-requests",
                                    std::to_string(report.completed + report.dropped),
                                    std::to_string(n)));
}

Rep run_faults(const Workload& w, long long n, std::uint64_t seed, Spans* spans,
               std::string_view plant) {
  Rep rep;
  Rng rng = workload_rng(w, seed);
  const ControlCase c = build_timed<ControlCase>(
      rng, &rep.setup_s, [&](Rng& r) { return make_case(w, n, r); });
  faults_call(c, plant, rep);
  if (spans != nullptr) {
    check_traced_report(rep, canonical(traced_faults(c, *spans, rep)));
  }
  return rep;
}

// --- Output ---------------------------------------------------------------------

void print_rep(const Workload& w, std::uint64_t seed, const Rep& rep, bool traced) {
  std::ostringstream out;
  out << "{\"workload\": \"" << w.name << "\", \"seed\": " << seed
      << ", \"traced\": " << (traced ? "true" : "false")
      << ", \"report\": \"" << json_escape(rep.report) << "\""
      << ", \"requests\": " << rep.requests << ", \"served\": " << rep.served
      << ", \"dropped\": " << rep.dropped << ", \"call_s\": " << json_num(rep.call_s)
      << ", \"setup_s\": " << json_num(rep.setup_s)
      << ", \"rss_mb\": " << json_num(rep.rss_mb)
      << ", \"fmax\": " << json_num(rep.fmax)
      << ", \"mean_flow\": " << json_num(rep.mean_flow)
      << ", \"p99_flow\": " << json_num(rep.p99_flow)
      << ", \"p999_flow\": " << json_num(rep.p999_flow) << ", \"checks\": [";
  for (std::size_t i = 0; i < rep.checks.size(); ++i) {
    const Check& c = rep.checks[i];
    out << (i == 0 ? "" : ", ") << "{\"name\": \"" << json_escape(c.name)
        << "\", \"ok\": " << (c.ok ? "true" : "false") << ", \"detail\": \""
        << json_escape(c.detail) << "\"}";
  }
  out << "]";
  if (traced) {
    out << ", \"traced_total_s\": " << json_num(rep.traced_total_s)
        << ", \"parts\": {";
    for (std::size_t i = 0; i < rep.parts.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << rep.parts[i].first
          << "\": " << json_num(rep.parts[i].second);
    }
    out << "}, \"layers\": {";
    bool first = true;
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = rep.layers.find(name);
      out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
          << json_num(it == rep.layers.end() ? 0.0 : it->second)
          << ", \"unit\": \"" << unit << "\"}";
      first = false;
    }
    out << "}";
  }
  out << "}\n";
  std::fputs(out.str().c_str(), stdout);
}

int cmd_run(const ArgParser& args) {
  const Workload& w = find_workload(args.get("workload", ""));
  const std::uint64_t seed = std::stoull(args.get("seed", "1"));
  const int scale_div = args.integer("scale-div", 1);
  const std::string trace_path = args.get("trace", "");
  const std::string plant = args.get("plant", "");
  args.reject_unknown();
  if (scale_div < 1) throw std::invalid_argument("--scale-div must be >= 1");
  if (!plant.empty() && (w.kind != Kind::kFaults ||
                         (plant != "ulp" && plant != "drop-decision"))) {
    throw std::invalid_argument("--plant ulp|drop-decision needs faults-adaptive");
  }
  const long long n = w.requests / scale_div;

  std::optional<Spans> trace;
  if (!trace_path.empty()) trace.emplace();
  Spans* spans = trace ? &*trace : nullptr;
  const auto run_rep = [&]() -> Rep {
    switch (w.kind) {
      case Kind::kStream: return run_stream(w, n, seed, spans);
      case Kind::kShard: return run_shard(w, n, seed, spans);
      case Kind::kBatch: return run_batch(w, n, seed, spans);
      case Kind::kFaults: return run_faults(w, n, seed, spans, plant);
    }
    throw std::logic_error("unknown workload kind");
  };
  if (spans == nullptr) {
    Rep rep = run_rep();
    rep.requests = n;
    print_rep(w, seed, rep, false);
    return 0;
  }

  // Traced: kTracedPasses passes, each the untraced call followed by its
  // traced version on the same input, so each pass yields its own trace
  // overhead. Host speed drifts between passes; the pass with the median
  // traced total supplies the layers and parts.
  std::vector<Rep> passes;
  std::vector<double> overhead;
  for (int pass = 0; pass < kTracedPasses; ++pass) {
    Rep& rep = passes.emplace_back(run_rep());
    rep.close_parts();
    overhead.push_back(1.0 - rep.call_s / rep.traced_total_s);
  }
  std::vector<const Rep*> by_total;
  for (const Rep& rep : passes) by_total.push_back(&rep);
  std::sort(by_total.begin(), by_total.end(), [](const Rep* a, const Rep* b) {
    return a->traced_total_s < b->traced_total_s;
  });
  Rep rep = *by_total[by_total.size() / 2];
  for (const Rep& other : passes) {
    if (&other == by_total[by_total.size() / 2]) continue;
    for (const Check& c : other.checks) {
      if (!c.ok) rep.checks.push_back(c);
    }
    rep.checks.push_back(expect_equal("traced-passes-agree", other.report, rep.report));
  }
  rep.set_layer("trace_overhead_frac", median(overhead));
  rep.requests = n;
  spans->write(trace_path, w.name);
  print_rep(w, seed, rep, true);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParser args(argc, argv);
    if (args.command() == "run") return cmd_run(args);
    if (args.command() == "build-info") {
      args.reject_unknown();
#ifdef NDEBUG
      const char* build = "release";
#else
      const char* build = "debug";
#endif
      std::printf("{\"build_type\": \"%s\", \"compiler\": \"%s\"}\n", build,
                  json_escape(__VERSION__).c_str());
      return 0;
    }
    std::fprintf(stderr,
                 "usage: flowsched_e2e run --workload <name> --seed <n> "
                 "[--scale-div <d>] [--trace <spans.json>] [--plant <what>]\n"
                 "       flowsched_e2e build-info\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flowsched_e2e: %s\n", e.what());
    return 1;
  }
}
