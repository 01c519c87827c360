// The observability layer's four pinned guarantees:
//  (a) trace and metrics bytes are thread-count-invariant (the PR-1
//      determinism contract extended to event streams),
//  (b) MetricsCollector agrees with the same quantities recomputed
//      independently from the returned Schedule,
//  (c) everything the recorder emits parses and validates against
//      docs/trace-format.md, and corrupted documents do not,
//  (d) a disabled observer adds zero events and leaves schedules
//      byte-identical to the pre-observability engine.
#include "obs/observer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_check.hpp"
#include "runner/experiment.hpp"
#include "sched/engine.hpp"
#include "sched/fifo.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace flowsched {
namespace {

// Structured instance small enough to reason about, busy enough to exercise
// queueing, idle gaps, and restricted eligible sets.
Instance small_instance() {
  std::vector<Task> tasks;
  for (int i = 0; i < 40; ++i) {
    tasks.push_back({.release = i * 0.25,
                     .proc = 1.0 + static_cast<double>(i % 4),
                     .eligible = ProcSet({i % 5, (i + 2) % 5})});
  }
  return Instance(5, tasks);
}

// Counts raw callbacks; used to assert the zero-event guarantee.
class CountingObserver final : public SchedObserver {
 public:
  void on_run_begin(const RunInfo&) override { ++begins; }
  void on_event(const ObsEvent&) override { ++events; }
  void on_run_end(double) override { ++ends; }

  int begins = 0;
  int events = 0;
  int ends = 0;
};

// ---------------------------------------------------------------------------
// (d) Disabled observer: zero events, identical schedules.

TEST(Observer, UnobservedRunMatchesObservedRunExactly) {
  const Instance inst = small_instance();

  EftDispatcher plain(TieBreakKind::kMin);
  const Schedule unobserved = run_dispatcher(inst, plain);

  EftDispatcher observed_eft(TieBreakKind::kMin);
  TraceRecorder trace;
  const Schedule observed = run_dispatcher(inst, observed_eft, trace);

  ASSERT_EQ(unobserved.instance().n(), observed.instance().n());
  for (int i = 0; i < inst.n(); ++i) {
    EXPECT_EQ(unobserved.machine(i), observed.machine(i)) << "task " << i;
    EXPECT_EQ(unobserved.start(i), observed.start(i)) << "task " << i;
    EXPECT_EQ(unobserved.completion(i), observed.completion(i)) << "task " << i;
  }
}

TEST(Observer, DetachedObserverReceivesNothing) {
  EftDispatcher eft(TieBreakKind::kMin);
  OnlineEngine engine(3, eft);
  CountingObserver counter;
  engine.set_observer(&counter);
  engine.set_observer(nullptr);  // detached before any release
  engine.release({.release = 0, .proc = 1, .eligible = {}});
  engine.release({.release = 1, .proc = 2, .eligible = {}});
  engine.finish_observation();
  EXPECT_EQ(counter.begins, 0);
  EXPECT_EQ(counter.events, 0);
  EXPECT_EQ(counter.ends, 0);
}

TEST(Observer, EngineEmitsFourTaskEventsPerRelease) {
  EftDispatcher eft(TieBreakKind::kMin);
  OnlineEngine engine(2, eft);
  CountingObserver counter;
  engine.set_observer(&counter);
  // Back-to-back on an idle engine: released/dispatched/started/completed
  // plus one machine_busy transition per release.
  engine.release({.release = 0, .proc = 1, .eligible = ProcSet({0})});
  EXPECT_EQ(counter.events, 5);
  engine.release({.release = 0, .proc = 1, .eligible = ProcSet({1})});
  EXPECT_EQ(counter.events, 10);
}

// ---------------------------------------------------------------------------
// (b) MetricsCollector vs. independent recomputation from the Schedule.

TEST(Metrics, AgreesWithScheduleRecomputation) {
  const Instance inst = small_instance();
  EftDispatcher eft(TieBreakKind::kMin);
  MetricsCollector metrics;
  const Schedule sched = run_dispatcher(inst, eft, metrics);

  ASSERT_TRUE(metrics.finished());
  EXPECT_EQ(metrics.released(), inst.n());
  EXPECT_EQ(metrics.dispatched(), inst.n());
  EXPECT_EQ(metrics.completed(), inst.n());

  // Busy time and makespan recomputed straight off the returned schedule.
  std::vector<double> busy(static_cast<std::size_t>(inst.m()), 0.0);
  double makespan = 0.0;
  double max_flow = 0.0;
  double flow_sum = 0.0;
  for (int i = 0; i < inst.n(); ++i) {
    const Task& t = inst.tasks()[static_cast<std::size_t>(i)];
    busy[static_cast<std::size_t>(sched.machine(i))] += t.proc;
    makespan = std::max(makespan, sched.completion(i));
    const double flow = sched.completion(i) - t.release;
    max_flow = std::max(max_flow, flow);
    flow_sum += flow;
  }
  EXPECT_DOUBLE_EQ(metrics.makespan(), makespan);
  EXPECT_DOUBLE_EQ(metrics.max_flow(), max_flow);
  EXPECT_DOUBLE_EQ(metrics.mean_flow(), flow_sum / inst.n());
  for (int j = 0; j < inst.m(); ++j) {
    EXPECT_DOUBLE_EQ(metrics.busy_time(j), busy[static_cast<std::size_t>(j)])
        << "machine " << j;
    EXPECT_DOUBLE_EQ(metrics.utilization(j),
                     busy[static_cast<std::size_t>(j)] / makespan)
        << "machine " << j;
  }

  // Max backlog recomputed by sweeping every event time: a task is in the
  // backlog at time tau when release <= tau < completion (the spec orders
  // completions before releases at equal timestamps, so the value *at* tau
  // counts releases <= tau minus completions <= tau).
  std::vector<double> times;
  for (int i = 0; i < inst.n(); ++i) {
    times.push_back(inst.tasks()[static_cast<std::size_t>(i)].release);
    times.push_back(sched.completion(i));
  }
  int expect_max = 0;
  for (double tau : times) {
    int backlog = 0;
    for (int i = 0; i < inst.n(); ++i) {
      if (inst.tasks()[static_cast<std::size_t>(i)].release <= tau &&
          sched.completion(i) > tau) {
        ++backlog;
      }
    }
    expect_max = std::max(expect_max, backlog);
  }
  EXPECT_EQ(metrics.max_backlog(), expect_max);

  // The backlog series is a valid staircase: starts at a release, ends at 0.
  const auto series = metrics.backlog_series();
  ASSERT_FALSE(series.empty());
  EXPECT_EQ(series.back().value, 0);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_LE(series[i - 1].time, series[i].time);
  }
}

TEST(Metrics, FlowHistogramBucketsExactly) {
  // The double nearest 0.6 is 5404319552844595/2^53, strictly below the
  // 3/5 bin boundary of [0,3)/10 — the Rational path files it in bin 1,
  // while double arithmetic computes 0.6/0.3 = 2.0 (the quotient rounds up
  // to the boundary) and would misfile it into bin 2.
  FlowHistogram h(Rational(0), Rational(3), 10);
  h.add(0.6);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(2), 0u);
  // An exactly-representable sample on a boundary goes to the upper bin.
  FlowHistogram g(Rational(0), Rational(4), 8);  // width 1/2
  g.add(1.5);
  EXPECT_EQ(g.bin_count(2), 0u);
  EXPECT_EQ(g.bin_count(3), 1u);
  // Out-of-range samples clamp into the boundary bins.
  h.add(-1.0);
  h.add(100.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.total(), 3u);
}

// The exact-rational bin of x in [0, w * bins) / bins: floor(x / w),
// clamped. A sample that is no int64 rational is either below 1 (a
// subnormal: bin 0) or beyond 2^62 (the last bin).
std::size_t reference_bin(double x, const Rational& w, std::size_t bins) {
  if (x < 0) return 0;
  const auto r = rational_from_double(x);
  if (!r) return x < 1 ? 0 : bins - 1;
  if (*r >= w * Rational(static_cast<std::int64_t>(bins))) return bins - 1;
  const Rational q = *r / w;
  return static_cast<std::size_t>(q.num() / q.den());
}

// Dyadic widths from 0 take the shift path; it files every sample where
// exact rational arithmetic does: bin boundaries and one ulp either side,
// zeros, subnormals, and samples at or beyond hi.
TEST(Metrics, FlowHistogramShiftMatchesRational) {
  const double inf = std::numeric_limits<double>::infinity();
  for (int s = -3; s <= 2; ++s) {
    const Rational w = s < 0 ? Rational(1, std::int64_t{1} << -s)
                             : Rational(std::int64_t{1} << s);
    for (std::size_t bins : {1u, 5u, 64u}) {
      std::vector<double> samples = {
          0.0, -0.0, std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(), 0x1p-1030, 0x1p-70,
          1e300, std::numeric_limits<double>::max(), 0x1p62, 0x1p63};
      for (std::size_t k = 0; k <= bins + 1; ++k) {
        const double edge = std::ldexp(static_cast<double>(k), s);
        samples.insert(samples.end(), {edge, std::nextafter(edge, -inf),
                                       std::nextafter(edge, inf)});
      }
      FlowHistogram h(Rational(0), w * Rational(static_cast<std::int64_t>(bins)),
                      bins);
      std::vector<std::size_t> want(bins, 0);
      for (double x : samples) {
        h.add(x);
        ++want[reference_bin(x, w, bins)];
      }
      for (std::size_t b = 0; b < bins; ++b) {
        EXPECT_EQ(h.bin_count(b), want[b])
            << "width 2^" << s << ", " << bins << " bins, bin " << b;
      }
      EXPECT_EQ(h.total(), samples.size());
    }
  }
}

// Samples with no int64 rational clamp in double before the index cast, on
// both paths: +inf and huge values into the last bin, -inf into bin 0; NaN
// has no bin and throws without being counted.
TEST(Metrics, FlowHistogramNonFiniteSamples) {
  const double inf = std::numeric_limits<double>::infinity();
  FlowHistogram shift(Rational(0), Rational(64), 64);
  FlowHistogram exact(Rational(0), Rational(3), 10);
  FlowHistogram offset(Rational(-1), Rational(1), 4);
  for (FlowHistogram* h : {&shift, &exact, &offset}) {
    const std::size_t last = h->bins() - 1;
    for (double x : {inf, 1e300, 0x1p63, std::numeric_limits<double>::max()}) {
      h->add(x);
    }
    for (double x : {-inf, -1e300, -0x1p63}) h->add(x);
    EXPECT_EQ(h->bin_count(last), 4u);
    EXPECT_EQ(h->bin_count(0), 3u);
    EXPECT_THROW(h->add(std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
    EXPECT_EQ(h->total(), 7u);
  }
}

TEST(Metrics, ReplayOfScheduleMatchesLiveRun) {
  const Instance inst = small_instance();
  EftDispatcher eft(TieBreakKind::kMin);
  MetricsCollector live;
  const Schedule sched = run_dispatcher(inst, eft, live);

  MetricsCollector replayed;
  replay_schedule(sched, RunInfo{.m = inst.m(), .algo = "EFT-replay", .tag = {}},
                  replayed);

  // Dispatch timestamps differ (replay uses start time), but every quantity
  // derived from releases/starts/completions must agree.
  EXPECT_DOUBLE_EQ(replayed.makespan(), live.makespan());
  EXPECT_DOUBLE_EQ(replayed.max_flow(), live.max_flow());
  EXPECT_DOUBLE_EQ(replayed.mean_flow(), live.mean_flow());
  EXPECT_EQ(replayed.max_backlog(), live.max_backlog());
  for (int j = 0; j < inst.m(); ++j) {
    EXPECT_DOUBLE_EQ(replayed.busy_time(j), live.busy_time(j));
  }
}

// ---------------------------------------------------------------------------
// (c) Emitted traces parse, validate, and round-trip the spec's fields.

TEST(Trace, ChromeJsonValidatesAndRoundTrips) {
  const Instance inst = small_instance();
  EftDispatcher eft(TieBreakKind::kMin);
  TraceRecorder trace;
  run_dispatcher(inst, eft, trace,
                 RunTag{.experiment = "test_obs", .cell = 0xdeadbeef, .rep = 2});

  const std::string text = trace.json();
  const auto violations = validate_trace_json(text);
  EXPECT_TRUE(violations.empty())
      << "first violation: " << (violations.empty() ? "" : violations.front());

  const JsonValue root = json_parse(text);
  ASSERT_TRUE(root.is_object());
  ASSERT_NE(root.find("flowsched_trace"), nullptr);
  EXPECT_EQ(root.find("flowsched_trace")->as_number(), 1);

  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  int slices = 0;
  int instants = 0;
  bool tagged_label = false;
  for (const JsonValue& e : events->as_array()) {
    const std::string ph = e.find("ph")->as_string();
    if (ph == "X") {
      ++slices;
      const JsonValue* args = e.find("args");
      ASSERT_NE(args, nullptr);
      // flow = completion - release must be recoverable from the slice.
      const double ts = e.find("ts")->as_number();
      const double dur = e.find("dur")->as_number();
      const double release =
          args->find("release")->as_number() * kTraceTimeScale;
      EXPECT_NEAR(args->find("flow")->as_number() * kTraceTimeScale,
                  ts + dur - release, 1e-6);
    } else if (ph == "i") {
      ++instants;
    } else if (ph == "M" && e.find("name")->as_string() == "process_name") {
      const std::string label = e.find("args")->find("name")->as_string();
      if (label.find("[test_obs/0x00000000deadbeef/rep2]") !=
          std::string::npos) {
        tagged_label = true;
      }
    }
  }
  EXPECT_EQ(slices, inst.n());    // one complete slice per task
  EXPECT_EQ(instants, inst.n());  // one release instant per task
  EXPECT_TRUE(tagged_label) << "sweep tag missing from the process label";
}

TEST(Trace, NdjsonValidatesAndCountsEvents) {
  const Instance inst = small_instance();
  EftDispatcher eft(TieBreakKind::kMin);
  TraceRecorder trace;
  run_dispatcher(inst, eft, trace);

  const std::string text = trace.ndjson();
  const auto violations = validate_trace_ndjson(text);
  EXPECT_TRUE(violations.empty())
      << "first violation: " << (violations.empty() ? "" : violations.front());
  // Auto-detection routes the NDJSON form by its header line.
  EXPECT_TRUE(validate_trace(text).empty());

  const std::string header = text.substr(0, text.find('\n'));
  const JsonValue h = json_parse(header);
  EXPECT_EQ(h.find("flowsched_trace")->as_number(), 1);
  EXPECT_EQ(h.find("format")->as_string(), "ndjson");
  EXPECT_EQ(h.find("runs")->as_number(), 1);

  int completed = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    if (text.compare(pos, 21, "{\"ev\":\"task_completed") == 0) ++completed;
    pos = end + 1;
  }
  EXPECT_EQ(completed, inst.n());
}

TEST(Trace, CorruptedDocumentsFailValidation) {
  // Missing traceEvents.
  EXPECT_FALSE(validate_trace_json("{\"flowsched_trace\":1}").empty());
  // Unsupported version.
  EXPECT_FALSE(
      validate_trace_json("{\"flowsched_trace\":2,\"traceEvents\":[]}").empty());
  // Task slice without the required dur / args fields.
  EXPECT_FALSE(validate_trace_json(
                   "{\"flowsched_trace\":1,\"traceEvents\":[{\"ph\":\"X\","
                   "\"pid\":0,\"tid\":0,\"ts\":0,\"name\":\"t\"}]}")
                   .empty());
  // NDJSON event for a run that never began, and a run that never ends.
  EXPECT_FALSE(
      validate_trace_ndjson(
          "{\"flowsched_trace\":1,\"format\":\"ndjson\",\"runs\":1}\n"
          "{\"ev\":\"task_started\",\"run\":0,\"t\":0,\"task\":0,\"machine\":0}\n")
          .empty());
  EXPECT_FALSE(
      validate_trace_ndjson(
          "{\"flowsched_trace\":1,\"format\":\"ndjson\",\"runs\":1}\n"
          "{\"ev\":\"run_begin\",\"run\":0,\"m\":2,\"algo\":\"EFT\"}\n")
          .empty());

  // Deleting one required field from a genuinely emitted trace must trip the
  // validator (round-trip through the spec, negative direction).
  EftDispatcher eft(TieBreakKind::kMin);
  TraceRecorder trace;
  run_dispatcher(small_instance(), eft, trace);
  std::string text = trace.json();
  const std::size_t dur = text.find("\"dur\":");
  ASSERT_NE(dur, std::string::npos);
  text.replace(dur, 6, "\"xur\":");
  EXPECT_FALSE(validate_trace_json(text).empty());
}

TEST(Trace, FifoNarrationValidates) {
  // FIFO is queue-based (dispatch at start time); its narration must satisfy
  // the same spec as the immediate-dispatch engines'.
  std::vector<Task> tasks;
  for (int i = 0; i < 12; ++i) {
    tasks.push_back(
        {.release = i * 0.5, .proc = 2.0, .eligible = ProcSet()});
  }
  const Instance inst(3, tasks);
  TraceRecorder trace;
  fifo_schedule(inst, TieBreakKind::kMin, 0, &trace);
  ASSERT_EQ(trace.runs(), 1);
  EXPECT_TRUE(validate_trace_json(trace.json()).empty());
  EXPECT_TRUE(validate_trace_ndjson(trace.ndjson()).empty());
}

TEST(Trace, MergeKeepsRunsDistinct) {
  const Instance inst = small_instance();
  EftDispatcher eft1(TieBreakKind::kMin);
  EftDispatcher eft2(TieBreakKind::kMax);
  TraceRecorder a;
  TraceRecorder b;
  run_dispatcher(inst, eft1, a);
  run_dispatcher(inst, eft2, b);

  a.merge(std::move(b));
  EXPECT_EQ(a.runs(), 2);
  // The validator rejects duplicate run ids, so a clean merge proves the
  // pids/run ids were renumbered.
  EXPECT_TRUE(validate_trace_json(a.json()).empty());
  EXPECT_TRUE(validate_trace_ndjson(a.ndjson()).empty());
}

// ---------------------------------------------------------------------------
// (a) Thread-count invariance of the merged sweep trace + metrics rows.

// One miniature sweep replicate, in the exact shape bench_fig11_simulation
// fans out: per-job sinks, merged in job order afterwards.
struct SweepResult {
  std::string metrics_row;
  std::shared_ptr<TraceRecorder> trace;
};

std::pair<std::string, std::string> run_mini_sweep(int threads) {
  ExperimentRunner runner(threads);
  const std::uint64_t exp = experiment_id("test_obs_mini_sweep");
  const int kJobs = 8;
  const auto results = runner.map<SweepResult>(kJobs, [exp](int job) {
    const std::uint64_t cell = cell_id({static_cast<std::uint64_t>(job / 2)});
    const std::uint64_t rep = static_cast<std::uint64_t>(job % 2);
    const std::uint64_t seed = replicate_seed(exp, cell, rep);

    Rng rng(seed);
    const auto pop = make_popularity(PopularityCase::kShuffled, 8, 1.0, rng);
    KvWorkloadConfig config;
    config.m = 8;
    config.n = 120;
    config.lambda = 0.6 * 8;
    config.strategy = ReplicationStrategy::kOverlapping;
    config.k = 3;
    const auto inst = generate_kv_instance(config, pop, rng);

    SweepResult out;
    out.trace = std::make_shared<TraceRecorder>();
    MetricsCollector metrics;
    MulticastObserver observer({out.trace.get(), &metrics});
    EftDispatcher eft(TieBreakKind::kMin, seed);
    run_dispatcher(inst, eft, observer,
                   RunTag{.experiment = "test_obs_mini_sweep",
                          .cell = cell,
                          .rep = rep});
    out.metrics_row = metrics.to_json();
    return out;
  });

  TraceRecorder merged;
  std::string rows;
  for (const auto& r : results) {
    merged.merge(std::move(*r.trace));
    rows += r.metrics_row;
    rows += '\n';
  }
  return {merged.json() + "\n---\n" + merged.ndjson(), rows};
}

TEST(Trace, SweepBytesIdenticalAcrossThreadCounts) {
  const auto serial = run_mini_sweep(1);
  const auto parallel = run_mini_sweep(4);
  EXPECT_EQ(serial.first, parallel.first) << "trace bytes differ";
  EXPECT_EQ(serial.second, parallel.second) << "metrics rows differ";
  // And the merged artifacts are valid trace documents.
  const std::string& combined = serial.first;
  const std::size_t sep = combined.find("\n---\n");
  ASSERT_NE(sep, std::string::npos);
  EXPECT_TRUE(validate_trace_json(combined.substr(0, sep)).empty());
  EXPECT_TRUE(validate_trace_ndjson(combined.substr(sep + 5)).empty());
}

}  // namespace
}  // namespace flowsched
