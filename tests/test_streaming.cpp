// StreamingEngine + P2 sketches + simulate_cluster_streaming
// (docs/streaming.md): the bit-equivalence contract against OnlineEngine /
// simulate_cluster, the sketch error bounds, and the windowed StreamAuditor.
#include "sched/streaming.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "check/gen.hpp"
#include "check/stream_audit.hpp"
#include "kvstore/cluster_sim.hpp"
#include "obs/sketch.hpp"
#include "sched/dispatchers.hpp"
#include "sched/engine.hpp"
#include "util/rng.hpp"

namespace flowsched {
namespace {

std::unique_ptr<Dispatcher> make_policy(const std::string& name) {
  if (name == "eft-min") return make_eft_min();
  if (name == "eft-max") return make_eft_max();
  if (name == "eft-rand") return make_eft_rand(0x5eed);
  if (name == "random") return std::make_unique<RandomEligibleDispatcher>(0x5eed);
  if (name == "jsq") return std::make_unique<JsqDispatcher>(TieBreakKind::kMin);
  if (name == "rr") return std::make_unique<RoundRobinDispatcher>();
  if (name == "po2") return std::make_unique<PowerOfDChoicesDispatcher>(2, 0x5eed);
  throw std::invalid_argument("unknown policy " + name);
}

const std::vector<std::string> kPolicies = {
    "eft-min", "eft-max", "eft-rand", "random", "jsq", "rr", "po2"};

// The tentpole equivalence contract: for any instance and any dispatcher,
// StreamingEngine commits the bit-identical (machine, start) sequence as
// OnlineEngine, and leaves identical per-machine aggregates behind.
TEST(Streaming, EngineMatchesOnlineEngineAcrossPolicies) {
  StructuredInstanceOptions opts;
  opts.max_n = 60;
  for (const std::string& policy : kPolicies) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Rng rng(seed);
      const FuzzStructure structure =
          kAllFuzzStructures[seed % std::size(kAllFuzzStructures)];
      const Instance inst = random_structured_instance(structure, opts, rng);

      auto batch_policy = make_policy(policy);
      auto stream_policy = make_policy(policy);
      OnlineEngine batch(inst.m(), *batch_policy);
      StreamingEngine stream(inst.m(), *stream_policy);
      for (const Task& t : inst.tasks()) {
        const Assignment a = batch.release(t);
        const Assignment s = stream.release(t);
        ASSERT_EQ(s.machine, a.machine)
            << policy << " seed=" << seed << " diverged on machine choice";
        ASSERT_EQ(s.start, a.start)
            << policy << " seed=" << seed << " diverged on start time";
      }
      stream.drain();
      EXPECT_EQ(stream.completions(), batch.completions()) << policy;
      EXPECT_EQ(stream.in_flight(), 0u);
    }
  }
}

// Slot recycling: memory tracks the backlog peak, not the stream length.
TEST(Streaming, MemoryTracksBacklogNotStreamLength) {
  auto policy = make_policy("eft-min");
  StreamingEngine engine(4, *policy);
  const ProcSet all = ProcSet::all(4);
  // Widely spaced releases: backlog never exceeds 1.
  for (int i = 0; i < 50000; ++i) {
    engine.release(i * 10.0, 1.0, all);
  }
  EXPECT_EQ(engine.peak_in_flight(), 1u);
  EXPECT_EQ(engine.released(), 50000);
  EXPECT_LT(engine.memory_bytes(), 1u << 20);
}

// release() reuses one probe Task for the dispatcher; the capacity it keeps
// for the widest M_i seen is part of the engine's footprint.
TEST(Streaming, MemoryCountsTheReusedProbe) {
  auto narrow_policy = make_policy("eft-min");
  auto wide_policy = make_policy("eft-min");
  StreamingEngine narrow(1024, *narrow_policy);
  StreamingEngine wide(1024, *wide_policy);
  // Every machine idle, so EFT-Min picks machine 0 from either set and
  // both engines hold the same slots and events.
  for (int i = 0; i < 100; ++i) {
    narrow.release(i * 10.0, 1.0, ProcSet::single(0));
    wide.release(i * 10.0, 1.0, ProcSet::interval(0, 999));
  }
  EXPECT_EQ(narrow.completions(), wide.completions());
  EXPECT_GE(wide.memory_bytes(), narrow.memory_bytes() + 999 * sizeof(int));
}

TEST(Streaming, RejectsDecreasingReleases) {
  auto policy = make_policy("eft-min");
  StreamingEngine engine(2, *policy);
  const ProcSet all = ProcSet::all(2);
  engine.release(5.0, 1.0, all);
  EXPECT_THROW(engine.release(4.0, 1.0, all), std::invalid_argument);
  EXPECT_THROW(engine.release(6.0, 0.0, all), std::invalid_argument);
}

// --- P2 sketches -----------------------------------------------------------

TEST(Sketch, ExactForFirstFiveObservations) {
  P2Quantile q(0.5);
  const std::vector<double> xs = {9.0, 1.0, 5.0, 3.0, 7.0};
  for (double x : xs) q.add(x);
  EXPECT_EQ(q.count(), 5);
  EXPECT_DOUBLE_EQ(q.value(), 5.0);  // exact median of {1,3,5,7,9}
}

TEST(Sketch, UniformQuantilesWithinOnePercent) {
  P2Quantile p50(0.5), p90(0.9), p99(0.99);
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.uniform();
    p50.add(x);
    p90.add(x);
    p99.add(x);
  }
  EXPECT_NEAR(p50.value(), 0.50, 0.01);
  EXPECT_NEAR(p90.value(), 0.90, 0.01);
  EXPECT_NEAR(p99.value(), 0.99, 0.01);
}

TEST(Sketch, ExponentialTailWithinFivePercent) {
  // Heavier tail than uniform; p99 of Exp(1) = ln(100) ~ 4.605.
  P2Quantile p99(0.99);
  Rng rng(4);
  for (int i = 0; i < 200000; ++i) p99.add(rng.exponential(1.0));
  EXPECT_NEAR(p99.value(), 4.60517, 0.05 * 4.60517);
}

TEST(Sketch, StreamingQuantilesKeepExactMeanMinMax) {
  StreamingQuantiles sq;
  Rng rng(5);
  double sum = 0, lo = 1e300, hi = -1e300;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(2.0, 9.0);
    sq.add(x);
    sum += x;
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  EXPECT_EQ(sq.count(), 10000);
  EXPECT_DOUBLE_EQ(sq.mean(), sum / 10000);
  EXPECT_DOUBLE_EQ(sq.min(), lo);
  EXPECT_DOUBLE_EQ(sq.max(), hi);
  EXPECT_LE(sq.p50(), sq.p90());
  EXPECT_LE(sq.p90(), sq.p99());
  EXPECT_LE(sq.p99(), sq.p999());
  EXPECT_GE(sq.p50(), lo);
  EXPECT_LE(sq.p999(), hi);
}

// --- simulate_cluster_streaming -------------------------------------------

StoreConfig small_store(int m) {
  StoreConfig config;
  config.m = m;
  config.keys = 40 * m;
  config.zipf_s = 0.8;
  config.k = 3;
  return config;
}

// Field-for-field equality with the batch simulator on every cell of a
// seeded grid — the exact-quantile regime is *the same code* fed the same
// draws, so this is ==, not NEAR.
TEST(Streaming, ClusterReportMatchesBatchFieldForField) {
  for (int m : {4, 16}) {
    for (ServiceDist dist : {ServiceDist::kConstant, ServiceDist::kExponential,
                             ServiceDist::kUniform}) {
      for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
        SimConfig batch_config;
        batch_config.lambda = 0.6 * m;
        batch_config.requests = 3000;
        batch_config.dist = dist;
        StreamConfig stream_config;
        stream_config.lambda = batch_config.lambda;
        stream_config.requests = batch_config.requests;
        stream_config.dist = dist;

        Rng batch_rng(seed);
        KeyValueStore batch_store(small_store(m), batch_rng);
        auto batch_policy = make_policy("eft-min");
        const SimReport batch = simulate_cluster(batch_store, batch_config,
                                                 *batch_policy, batch_rng);

        Rng stream_rng(seed);
        KeyValueStore stream_store(small_store(m), stream_rng);
        auto stream_policy = make_policy("eft-min");
        const StreamReport stream = simulate_cluster_streaming(
            stream_store, stream_config, *stream_policy, stream_rng);

        EXPECT_TRUE(stream.exact_quantiles);
        EXPECT_EQ(stream.sim.requests, batch.requests);
        EXPECT_EQ(stream.sim.mean_latency, batch.mean_latency);
        EXPECT_EQ(stream.sim.p50, batch.p50);
        EXPECT_EQ(stream.sim.p90, batch.p90);
        EXPECT_EQ(stream.sim.p99, batch.p99);
        EXPECT_EQ(stream.sim.max_latency, batch.max_latency);
        EXPECT_EQ(stream.sim.makespan, batch.makespan);
        EXPECT_EQ(stream.sim.utilization, batch.utilization);
        // The one-line reports must also agree byte-for-byte.
        EXPECT_EQ(stream.sim.str(), batch.str());
      }
    }
  }
}

// Past the exact cap the sketches engage; mean and max stay exact, the
// sketched quantiles stay within a few percent of the batch truth.
TEST(Streaming, SketchRegimeStaysCloseToBatchQuantiles) {
  const int m = 8;
  SimConfig batch_config;
  batch_config.lambda = 0.6 * m;
  batch_config.requests = 40000;
  batch_config.dist = ServiceDist::kExponential;
  StreamConfig stream_config;
  stream_config.lambda = batch_config.lambda;
  stream_config.requests = batch_config.requests;
  stream_config.dist = batch_config.dist;
  stream_config.exact_quantile_cap = 1000;  // force the sketch path

  Rng batch_rng(21);
  KeyValueStore batch_store(small_store(m), batch_rng);
  auto batch_policy = make_policy("eft-min");
  const SimReport batch =
      simulate_cluster(batch_store, batch_config, *batch_policy, batch_rng);

  Rng stream_rng(21);
  KeyValueStore stream_store(small_store(m), stream_rng);
  auto stream_policy = make_policy("eft-min");
  const StreamReport stream = simulate_cluster_streaming(
      stream_store, stream_config, *stream_policy, stream_rng);

  EXPECT_FALSE(stream.exact_quantiles);
  EXPECT_EQ(stream.sim.mean_latency, batch.mean_latency);
  EXPECT_EQ(stream.sim.max_latency, batch.max_latency);
  EXPECT_EQ(stream.sim.makespan, batch.makespan);
  EXPECT_NEAR(stream.sim.p50, batch.p50, 0.05 * batch.p50 + 0.02);
  EXPECT_NEAR(stream.sim.p90, batch.p90, 0.05 * batch.p90 + 0.02);
  EXPECT_NEAR(stream.sim.p99, batch.p99, 0.08 * batch.p99 + 0.02);
  EXPECT_LE(stream.p999, stream.sim.max_latency);
  EXPECT_GE(stream.p999, stream.sim.p99 * 0.8);
}

// Same seed, two runs: the deterministic report is byte-identical (the
// thread-count invariance ctest builds on exactly this property).
TEST(Streaming, ReportIsDeterministic) {
  const auto run = [] {
    Rng rng(33);
    KeyValueStore store(small_store(8), rng);
    auto policy = make_policy("eft-min");
    StreamConfig config;
    config.lambda = 5.0;
    config.requests = 5000;
    return simulate_cluster_streaming(store, config, *policy, rng).str();
  };
  EXPECT_EQ(run(), run());
}

// SimReport::requests is an int: longer streams are refused up front, by
// both drivers, before a single request is drawn.
TEST(Streaming, RejectsRequestCountsAboveIntMax) {
  Rng rng(55);
  KeyValueStore store(small_store(8), rng);
  auto policy = make_policy("eft-min");
  StreamConfig config;
  config.requests = 1LL << 31;
  EXPECT_THROW(simulate_cluster_streaming(store, config, *policy, rng),
               std::invalid_argument);
  const ShardedEngine::DispatcherFactory factory = [](int) {
    return make_policy("eft-min");
  };
  EXPECT_THROW(simulate_cluster_streaming_sharded(store, config, factory,
                                                  ShardedEngine::Options{}, rng),
               std::invalid_argument);
}

// --- StreamAuditor ---------------------------------------------------------

TEST(StreamAudit, CleanOnRealStreamingRun) {
  Rng rng(44);
  KeyValueStore store(small_store(8), rng);
  auto policy = make_policy("eft-min");
  StreamConfig config;
  config.lambda = 5.0;
  config.requests = 8000;
  StreamAuditConfig audit_config;
  audit_config.horizon = 32.0;
  StreamAuditor auditor(audit_config);
  const StreamReport report =
      simulate_cluster_streaming(store, config, *policy, rng, &auditor);
  EXPECT_TRUE(auditor.ok()) << auditor.violations().front();
  EXPECT_EQ(auditor.tasks_seen(), 8000);
  // Windowed retention: far fewer records held than tasks seen.
  EXPECT_LT(auditor.peak_window_size(), 8000u);
  EXPECT_LE(auditor.window_max_flow(), report.sim.max_latency);
}

TEST(StreamAudit, CleanAcrossPoliciesOnStructuredInstances) {
  StructuredInstanceOptions opts;
  opts.max_n = 40;
  for (const std::string& policy_name : kPolicies) {
    Rng rng(55);
    const Instance inst =
        random_structured_instance(FuzzStructure::kNested, opts, rng);
    auto policy = make_policy(policy_name);
    StreamingEngine engine(inst.m(), *policy);
    StreamAuditor auditor;
    auditor.on_run_begin(RunInfo{inst.m(), policy->name(), {}});
    engine.set_observer(&auditor);
    double makespan = 0;
    for (const Task& t : inst.tasks()) {
      const Assignment a = engine.release(t);
      makespan = std::max(makespan, a.start + t.proc);
    }
    engine.drain();
    auditor.on_run_end(makespan);
    EXPECT_TRUE(auditor.ok())
        << policy_name << ": " << auditor.violations().front();
  }
}

// Hand-fed event streams: each check family fires on its defect.
class StreamAuditViolations : public ::testing::Test {
 protected:
  void begin(const std::string& algo = "EFT-Min") {
    auditor_.on_run_begin(RunInfo{2, algo, {}});
    eligible_ = ProcSet::all(2);
  }
  ObsEvent released(int task, double time) {
    ObsEvent e;
    e.kind = ObsEventKind::kTaskReleased;
    e.time = time;
    e.task = task;
    e.release = time;
    e.proc = 1.0;
    e.eligible = &eligible_;
    return e;
  }
  ObsEvent milestone(ObsEventKind kind, int task, double time, int machine) {
    ObsEvent e;
    e.kind = kind;
    e.time = time;
    e.task = task;
    e.machine = machine;
    e.release = 0.0;
    e.proc = 1.0;
    return e;
  }
  bool has_tag(const std::string& tag) const {
    for (const std::string& v : auditor_.violations()) {
      if (v.find(tag) != std::string::npos) return true;
    }
    return false;
  }
  StreamAuditor auditor_;
  ProcSet eligible_;
};

TEST_F(StreamAuditViolations, EligibilityOutsideProcessingSet) {
  begin();
  auditor_.on_event(released(0, 0.0));
  auditor_.on_event(milestone(ObsEventKind::kTaskDispatched, 0, 0.0, 7));
  EXPECT_TRUE(has_tag("[stream-eligibility]"));
}

TEST_F(StreamAuditViolations, AccountingWrongStart) {
  begin("Random");  // non-EFT: isolate the accounting check
  auditor_.on_event(released(0, 0.0));
  auditor_.on_event(milestone(ObsEventKind::kTaskDispatched, 0, 0.0, 1));
  auditor_.on_event(milestone(ObsEventKind::kTaskStarted, 0, 0.5, 1));
  EXPECT_TRUE(has_tag("[stream-accounting]"));
}

TEST_F(StreamAuditViolations, WorkConservationLateStart) {
  begin("EFT-Min");
  auditor_.on_event(released(0, 0.0));
  auditor_.on_event(milestone(ObsEventKind::kTaskDispatched, 0, 0.0, 0));
  auditor_.on_event(milestone(ObsEventKind::kTaskStarted, 0, 0.0, 0));
  auditor_.on_event(milestone(ObsEventKind::kTaskCompleted, 0, 1.0, 0));
  // Machine 1 is free at t=0; starting task 1 at t=1 wastes it.
  auditor_.on_event(released(1, 0.0));
  auditor_.on_event(milestone(ObsEventKind::kTaskDispatched, 1, 0.0, 0));
  auditor_.on_event(milestone(ObsEventKind::kTaskStarted, 1, 1.0, 0));
  EXPECT_TRUE(has_tag("[stream-work-conservation]"));
  EXPECT_FALSE(has_tag("[stream-accounting]"));  // start matched its machine
}

TEST_F(StreamAuditViolations, ProtocolOutOfOrderMilestones) {
  begin();
  auditor_.on_event(released(0, 0.0));
  auditor_.on_event(milestone(ObsEventKind::kTaskStarted, 0, 0.0, 0));
  EXPECT_TRUE(has_tag("[stream-protocol]"));
}

TEST_F(StreamAuditViolations, ProtocolDecreasingReleases) {
  begin();
  auditor_.on_event(released(0, 5.0));
  auditor_.on_event(milestone(ObsEventKind::kTaskDispatched, 0, 5.0, 0));
  auditor_.on_event(milestone(ObsEventKind::kTaskStarted, 0, 5.0, 0));
  auditor_.on_event(milestone(ObsEventKind::kTaskCompleted, 0, 6.0, 0));
  auditor_.on_event(released(1, 4.0));
  EXPECT_TRUE(has_tag("[stream-protocol]"));
}

TEST_F(StreamAuditViolations, RunEndMidTask) {
  begin();
  auditor_.on_event(released(0, 0.0));
  auditor_.on_run_end(1.0);
  EXPECT_TRUE(has_tag("[stream-protocol]"));
}

}  // namespace
}  // namespace flowsched
