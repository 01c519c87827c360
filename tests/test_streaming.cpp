// StreamingEngine + histogram quantiles + simulate_cluster_streaming
// (docs/streaming.md): the bit-equivalence contract against OnlineEngine /
// simulate_cluster, the sketch error bounds, and the windowed StreamAuditor.
#include "sched/streaming.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "check/gen.hpp"
#include "check/stream_audit.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "kvstore/cluster_sim.hpp"
#include "obs/sketch.hpp"
#include "sched/dispatchers.hpp"
#include "sched/engine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

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

// Memory tracks the backlog peak, not the stream length.
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

// Under a deep backlog the engine holds one finish per waiting task in its
// machine's ring, at most 16 B each (a ring doubles when full), plus
// per-machine state: no per-task slot or queue entry.
TEST(Streaming, MemoryTracksDeepBacklog) {
  const int m = 8;
  auto policy = make_policy("eft-min");
  StreamingEngine engine(m, *policy);
  // Six unit tasks per time unit on a three-machine replica set: the
  // backlog grows by three per unit.
  const ProcSet hot = ProcSet::interval(0, 2);
  const int n = 420000;
  for (int i = 0; i < n; ++i) engine.release(i / 6.0, 1.0, hot);
  ASSERT_GE(engine.peak_in_flight(), 200000u);
  EXPECT_LE(engine.memory_bytes(),
            16 * engine.peak_in_flight() + 64 * 1024);
  engine.drain();
  EXPECT_EQ(engine.in_flight(), 0u);
}

// release() reuses one probe Task for the dispatcher; the M_i block it
// shares with the caller is part of the engine's footprint.
TEST(Streaming, MemoryCountsTheReusedProbe) {
  auto narrow_policy = make_policy("eft-min");
  auto wide_policy = make_policy("eft-min");
  StreamingEngine narrow(1024, *narrow_policy);
  StreamingEngine wide(1024, *wide_policy);
  // Every machine idle, so EFT-Min picks machine 0 from either set and
  // both engines hold the same rings and fronts.
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
  // NaN compares false both ways: rejected, and the order check survives.
  EXPECT_THROW(engine.release(std::nan(""), 1.0, all), std::invalid_argument);
  EXPECT_THROW(engine.release(5.5, 1.0, all), std::invalid_argument);
  engine.release(6.0, 1.0, all);
}

// An infinite proc would leave its machine busy forever, and a finite one
// whose completion overflows would too: both are rejected at release.
TEST(Streaming, RejectsNonFiniteProcAndOverflowingCompletion) {
  const double inf = std::numeric_limits<double>::infinity();
  const double big = std::numeric_limits<double>::max();
  auto policy = make_policy("eft-min");
  StreamingEngine engine(2, *policy);
  const ProcSet all = ProcSet::all(2);
  EXPECT_THROW(engine.release(1.0, inf, all), std::invalid_argument);
  EXPECT_THROW(engine.release(1.0, std::nan(""), all), std::invalid_argument);
  engine.release(1.0, big, ProcSet::single(0));
  // Machine 0 is busy until ~DBL_MAX; a second maximal task there ends at
  // +inf.
  EXPECT_THROW(engine.release(2.0, big, ProcSet::single(0)),
               std::invalid_argument);
  engine.release(2.0, 1.0, ProcSet::single(1));
  EXPECT_EQ(engine.in_flight(), 2u);
}

// Wraps a policy and records what it sees at every dispatch: the instant,
// every machine's queue depth, and the load of each eligible machine (the
// settled finished work in non-clairvoyant mode).
class RecordingDispatcher final : public Dispatcher {
 public:
  struct View {
    double time;
    std::vector<int> queued;
    std::vector<std::pair<int, double>> load;
  };

  explicit RecordingDispatcher(std::unique_ptr<Dispatcher> inner)
      : inner_(std::move(inner)) {}

  void reset(int m) override { inner_->reset(m); }
  int dispatch(const Task& t, const MachineState& state) override {
    View view{t.release, {state.queued.begin(), state.queued.end()}, {}};
    for (int j : t.eligible.machines()) {
      view.load.emplace_back(j, state.load[static_cast<std::size_t>(j)]);
    }
    views.push_back(std::move(view));
    return inner_->dispatch(t, state);
  }
  bool needs_queue_depths() const override {
    return inner_->needs_queue_depths();
  }
  std::string name() const override { return inner_->name(); }

  std::vector<View> views;

 private:
  std::unique_ptr<Dispatcher> inner_;
};

// The reference settle: every segment's finish in one binary heap ordered
// by (finish, push order), popped up to each dispatch instant. Per machine,
// pops come in push order, so the finished-work sums add in the engine's
// order and compare bit for bit.
class ReferenceSettle {
 public:
  explicit ReferenceSettle(int m)
      : queued_(static_cast<std::size_t>(m), 0),
        finished_(static_cast<std::size_t>(m), 0.0) {}

  void push(int machine, double finish, double work) {
    ++queued_[static_cast<std::size_t>(machine)];
    ++in_flight_;
    peak_ = std::max(peak_, in_flight_);
    // A segment that never ends stays queued.
    if (std::isfinite(finish)) heap_.push({finish, seq_++, machine, work});
  }
  void settle_until(double time) {
    while (!heap_.empty() && heap_.top().finish <= time) {
      const Entry e = heap_.top();
      heap_.pop();
      --queued_[static_cast<std::size_t>(e.machine)];
      finished_[static_cast<std::size_t>(e.machine)] += e.work;
      --in_flight_;
    }
  }
  // Compares a recorded dispatch view, settling to its instant first.
  void expect_view(const RecordingDispatcher::View& view, bool nc,
                   const std::string& where) {
    settle_until(view.time);
    ASSERT_EQ(view.queued, queued_) << where;
    if (!nc) return;
    for (const auto& [j, load] : view.load) {
      ASSERT_EQ(load, finished_[static_cast<std::size_t>(j)])
          << where << " machine " << j;
    }
  }

  std::size_t in_flight() const { return in_flight_; }
  std::size_t peak() const { return peak_; }

 private:
  struct Entry {
    double finish;
    long long seq;
    int machine;
    double work;
    bool operator>(const Entry& o) const {
      return finish != o.finish ? finish > o.finish : seq > o.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  long long seq_ = 0;
  std::vector<int> queued_;
  std::vector<double> finished_;
  std::size_t in_flight_ = 0;
  std::size_t peak_ = 0;
};

// Records each task's (machine, finish, setup + proc) from its completed
// event.
class CompletionRecorder final : public SchedObserver {
 public:
  void on_run_begin(const RunInfo&) override {}
  void on_event(const ObsEvent& e) override {
    if (e.kind == ObsEventKind::kTaskCompleted) {
      last = {e.machine, e.time, e.setup + e.proc};
    }
  }
  void on_run_end(double) override {}

  struct Segment {
    int machine;
    double finish;
    double work;
  };
  Segment last{};
};

// Releases on the 2^-2 grid with procs and setups on the same grid, so
// finishes land exactly on later release instants all the time.
std::vector<Task> grid_stream(int m, int n, double load, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Task> tasks;
  double t = 0;
  for (int i = 0; i < n; ++i) {
    t += std::floor(rng.exponential(load * m) * 4.0) / 4.0;
    const int first = static_cast<int>(rng.uniform_int(0, m - 1));
    const int width = static_cast<int>(rng.uniform_int(1, 3));
    std::vector<int> set;
    for (int d = 0; d < width; ++d) set.push_back((first + d) % m);
    std::sort(set.begin(), set.end());
    tasks.push_back({.release = t,
                     .proc = 0.25 * static_cast<double>(rng.uniform_int(1, 8)),
                     .eligible = ProcSet(set)});
  }
  return tasks;
}

TEST(Streaming, SettleMatchesReferenceEventQueue) {
  const int m = 6;
  struct Case {
    const char* policy;
    Clairvoyance mode;
    double setup;
  };
  const Case cases[] = {{"eft-min", Clairvoyance::kClairvoyant, 0.0},
                        {"jsq", Clairvoyance::kClairvoyant, 0.0},
                        {"eft-min", Clairvoyance::kNonClairvoyant, 0.5},
                        {"jsq", Clairvoyance::kNonClairvoyant, 0.25}};
  for (const Case& c : cases) {
    // Light to overloaded: 0.6 keeps machines draining, 1.5 builds queues.
    for (const double load : {0.6, 1.5}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const std::string where = std::string(c.policy) +
                                  (c.mode == Clairvoyance::kNonClairvoyant
                                       ? " nc"
                                       : "") +
                                  " load=" + std::to_string(load) +
                                  " seed=" + std::to_string(seed);
        RecordingDispatcher recorder(make_policy(c.policy));
        StreamingEngine engine(m, recorder);
        engine.set_clairvoyance(c.mode, c.setup);
        CompletionRecorder completions;
        engine.set_observer(&completions);
        ReferenceSettle reference(m);
        long long at_release = 0;
        for (const Task& task : grid_stream(m, 400, load, seed)) {
          engine.release(task);
          ASSERT_EQ(recorder.views.size(),
                    static_cast<std::size_t>(++at_release));
          reference.expect_view(recorder.views.back(),
                                c.mode == Clairvoyance::kNonClairvoyant, where);
          const CompletionRecorder::Segment& s = completions.last;
          reference.push(s.machine, s.finish, s.work);
          ASSERT_EQ(engine.in_flight(), reference.in_flight()) << where;
        }
        EXPECT_EQ(engine.peak_in_flight(), reference.peak()) << where;
        EXPECT_GT(reference.peak(), static_cast<std::size_t>(m)) << where;
        engine.drain();
        EXPECT_EQ(engine.in_flight(), 0u) << where;
      }
    }
  }

  // The same reference for OnlineEngine's fault layer, which occupies
  // machines with killed segments (ending at their crash, often exactly at a
  // later dispatch instant) and with segments that never end (the machine
  // went down for good before they could start). Dispatch k is the k-th
  // non-parked attempt of the fault log.
  {
    const double inf = std::numeric_limits<double>::infinity();
    const int fault_m = 4;
    int killed = 0;
    int never_end = 0;
    for (const char* policy : {"eft-min", "jsq"}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const std::string where =
            std::string(policy) + " seed=" + std::to_string(seed);
        const std::vector<Task> tasks = grid_stream(fault_m, 200, 1.2, seed);
        FaultPlan plan(fault_m);
        plan.add_down(0, 2.0, 5.0);
        plan.add_down(0, 9.0, inf);  // machine 0 never recovers
        plan.add_down(1, 3.0, 3.5);
        plan.add_down(2, 6.0, 6.25);
        RecoveryPolicy recovery;
        recovery.kind =
            seed % 2 == 0 ? RecoveryKind::kCheckpoint : RecoveryKind::kBackoff;
        RecordingDispatcher recorder(make_policy(policy));
        const OnlineEngine engine = run_dispatcher_faulty(
            Instance(fault_m, tasks), recorder, plan, recovery);

        ReferenceSettle reference(fault_m);
        std::size_t k = 0;
        for (const FaultAttempt& a : engine.fault_log().attempts()) {
          if (a.machine < 0) continue;  // parked: no dispatch
          ASSERT_LT(k, recorder.views.size()) << where;
          ASSERT_EQ(recorder.views[k].time, a.scheduled) << where;
          reference.expect_view(recorder.views[k], false,
                                where + " dispatch " + std::to_string(k));
          reference.push(a.machine, a.end, a.end - a.start);
          ++k;
          killed += a.killed ? 1 : 0;
          never_end += std::isinf(a.end) ? 1 : 0;
        }
        EXPECT_EQ(k, recorder.views.size()) << where;
      }
    }
    EXPECT_GT(killed, 0);
    EXPECT_GT(never_end, 0);
  }
}

// --- Histogram quantiles ---------------------------------------------------

// Every quantile against the order statistic of 0-based rank floor(q(n-1)):
// within 2^-(b+1) relative for normal values, 2^-1030 absolute for zero and
// subnormals, exact for infinities.
void expect_within_bound(const StreamingQuantiles& sq, std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const double rel = std::ldexp(1.0, -(StreamingQuantiles::kSubBucketBits + 1));
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double x =
        xs[static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1))];
    if (std::isinf(x)) {
      EXPECT_EQ(sq.quantile(q), x) << "q=" << q;
      continue;
    }
    const double tol =
        std::isnormal(x) ? rel * std::abs(x) : std::ldexp(1.0, -1030);
    EXPECT_LE(std::abs(sq.quantile(q) - x), tol) << "q=" << q << " x=" << x;
  }
  EXPECT_EQ(sq.p50(), sq.quantile(0.50));
  EXPECT_EQ(sq.p90(), sq.quantile(0.90));
  EXPECT_EQ(sq.p99(), sq.quantile(0.99));
  EXPECT_EQ(sq.p999(), sq.quantile(0.999));
}

TEST(Sketch, ExactForFirstFiveObservations) {
  // Count, min, max and mean are exact at any n; the quantiles carry the
  // bucket bound from the first sample on.
  StreamingQuantiles sq;
  EXPECT_EQ(sq.p50(), 0.0);  // empty
  const std::vector<double> xs = {9.0, 1.0, 5.0, 3.0, 7.0};
  for (double x : xs) sq.add(x);
  EXPECT_EQ(sq.count(), 5);
  EXPECT_EQ(sq.min(), 1.0);
  EXPECT_EQ(sq.max(), 9.0);
  EXPECT_EQ(sq.mean(), 5.0);
  expect_within_bound(sq, xs);
  EXPECT_GE(sq.quantile(0.0), 1.0);  // clamped to the exact extremes
  EXPECT_LE(sq.quantile(1.0), 9.0);

  StreamingQuantiles negated;  // sign-folded keys keep the order
  std::vector<double> ys;
  for (double x : xs) ys.push_back(-x);
  for (double y : ys) negated.add(y);
  expect_within_bound(negated, ys);
}

TEST(Sketch, UniformQuantilesWithinOnePercent) {
  StreamingQuantiles sq;
  std::vector<double> xs;
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) {
    xs.push_back(rng.uniform());
    sq.add(xs.back());
  }
  expect_within_bound(sq, xs);
  EXPECT_NEAR(sq.p50(), 0.50, 0.01);
  EXPECT_NEAR(sq.p90(), 0.90, 0.01);
  EXPECT_NEAR(sq.p99(), 0.99, 0.01);
}

TEST(Sketch, ExponentialTailWithinFivePercent) {
  // Heavier tail than uniform; p99 of Exp(1) = ln(100) ~ 4.605.
  StreamingQuantiles sq;
  std::vector<double> xs;
  Rng rng(4);
  for (int i = 0; i < 200000; ++i) {
    xs.push_back(rng.exponential(1.0));
    sq.add(xs.back());
  }
  expect_within_bound(sq, xs);
  EXPECT_NEAR(sq.p99(), 4.60517, 0.05 * 4.60517);
}

TEST(Sketch, StreamingQuantilesKeepExactMeanMinMax) {
  StreamingQuantiles sq;
  std::vector<double> xs;
  Rng rng(5);
  double sum = 0, lo = 1e300, hi = -1e300;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(2.0, 9.0);
    sq.add(x);
    xs.push_back(x);
    sum += x;
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  EXPECT_EQ(sq.count(), 10000);
  EXPECT_EQ(sq.mean(), sum / 10000);  // arrival-order sum, bit-identical
  EXPECT_EQ(sq.min(), lo);
  EXPECT_EQ(sq.max(), hi);
  expect_within_bound(sq, xs);
  EXPECT_LE(sq.p50(), sq.p90());
  EXPECT_LE(sq.p90(), sq.p99());
  EXPECT_LE(sq.p99(), sq.p999());
  EXPECT_GE(sq.p50(), lo);
  EXPECT_LE(sq.p999(), hi);
}

TEST(Sketch, ShuffledInsertionGivesIdenticalQuantiles) {
  std::vector<double> xs;
  Rng rng(6);
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.exponential(0.5));
  std::vector<double> shuffled = xs;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(7));
  std::vector<double> descending = xs;
  std::sort(descending.begin(), descending.end(), std::greater<>());
  StreamingQuantiles a, b, c;
  for (double x : xs) a.add(x);
  for (double x : shuffled) b.add(x);
  for (double x : descending) c.add(x);  // grows the window downward only
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const auto bits = std::bit_cast<std::uint64_t>(a.quantile(q));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.quantile(q)), bits) << "q=" << q;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(c.quantile(q)), bits) << "q=" << q;
  }
  EXPECT_EQ(b.min(), a.min());
  EXPECT_EQ(b.max(), a.max());
}

TEST(Sketch, WideRangeKeepsTheWindowBounded) {
  // The window holds 2^b buckets per binade spanned, with at most 3x slack.
  const auto window_cap = [](int binades) {
    return std::size_t{3} * static_cast<std::size_t>(binades)
           << (StreamingQuantiles::kSubBucketBits + 3);
  };
  StreamingQuantiles sq;
  std::vector<double> xs;
  Rng rng(8);
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(std::pow(10.0, rng.uniform(-9.0, 6.0)));  // 1e-9 .. 1e6
    sq.add(xs.back());
  }
  expect_within_bound(sq, xs);
  const int binades = std::ilogb(1e6) - std::ilogb(1e-9) + 1;
  EXPECT_LE(sq.memory_bytes(), window_cap(binades));

  // Non-finite samples have their own counters: the window stays put.
  const std::size_t before = sq.memory_bytes();
  const double inf = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 100; ++i) {
    sq.add(inf);
    xs.push_back(inf);
  }
  EXPECT_EQ(sq.memory_bytes(), before);
  EXPECT_EQ(sq.max(), inf);
  EXPECT_EQ(sq.quantile(1.0), inf);

  // Subnormals stretch the window down to the bottom binade, no further.
  for (double x : {std::numeric_limits<double>::denorm_min(), 1e-310, 4e-320,
                   0.0, std::numeric_limits<double>::min()}) {
    for (int i = 0; i < 50; ++i) {
      sq.add(x);
      xs.push_back(x);
    }
  }
  expect_within_bound(sq, xs);
  EXPECT_EQ(sq.min(), 0.0);
  EXPECT_EQ(sq.count(), xs.size());
  const int all_binades =
      std::ilogb(1e6) + std::numeric_limits<double>::max_exponent;
  EXPECT_LE(sq.memory_bytes(), window_cap(all_binades));
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

// A NaN or infinite service time is rejected up front, naming the field,
// by every driver (an infinite one used to run and report mean=inf).
TEST(Streaming, RejectsNonFiniteServiceTimes) {
  Rng rng(56);
  KeyValueStore store(small_store(8), rng);
  auto policy = make_policy("eft-min");
  const ShardedEngine::DispatcherFactory factory = [](int) {
    return make_policy("eft-min");
  };
  for (const double service : {std::numeric_limits<double>::infinity(),
                               std::nan(""), 0.0, -1.0}) {
    for (const ServiceDist dist :
         {ServiceDist::kConstant, ServiceDist::kExponential}) {
      StreamConfig config;
      config.requests = 10;
      config.service_time = service;
      config.dist = dist;
      try {
        simulate_cluster_streaming(store, config, *policy, rng);
        ADD_FAILURE() << "service_time " << service << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("service_time"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_THROW(simulate_cluster_streaming_sharded(
                       store, config, factory, ShardedEngine::Options{}, rng),
                   std::invalid_argument);
      SimConfig batch;
      batch.requests = 10;
      batch.service_time = service;
      batch.dist = dist;
      EXPECT_THROW(simulate_cluster(store, batch, *policy, rng),
                   std::invalid_argument);
    }
  }
}

// --- The block request loop ------------------------------------------------

// The drivers draw requests a block at a time, then release them. This is
// the per-request loop they must stay equal to: each request draws its
// arrival gap, key and service, in that order, and is released at once.
struct ReferenceRequest {
  double release;
  double proc;
  ProcSet eligible;
};

std::vector<ReferenceRequest> per_request_stream(const KeyValueStore& store,
                                                 const StreamConfig& config,
                                                 Rng& rng) {
  std::vector<ReferenceRequest> out;
  double t = 0.0;
  for (long long i = 0; i < config.requests; ++i) {
    t += rng.exponential(config.lambda);
    const int key = store.sample_key(rng);
    const double p = rng.exponential(1.0 / config.service_time);
    out.push_back({t, p > 1e-9 ? p : 1e-9, store.replicas_of_key(key)});
  }
  return out;
}

// The report the drivers assemble, from flows in request order.
StreamReport reference_report(const StreamConfig& config,
                              std::vector<double> flows,
                              const std::vector<double>& busy,
                              double makespan, std::size_t peak,
                              std::size_t memory) {
  StreamReport r;
  r.sim.requests = static_cast<int>(flows.size());
  r.exact_quantiles = config.requests <= config.exact_quantile_cap;
  if (r.exact_quantiles && !flows.empty()) {
    r.sim.mean_latency = mean(flows);
    std::sort(flows.begin(), flows.end());
    r.sim.p50 = quantile_sorted(flows, 0.50);
    r.sim.p90 = quantile_sorted(flows, 0.90);
    r.sim.p99 = quantile_sorted(flows, 0.99);
    r.sim.max_latency = quantile_sorted(flows, 1.0);
    r.p999 = quantile_sorted(flows, 0.999);
  } else if (!r.exact_quantiles) {
    StreamingQuantiles sketch;
    for (double f : flows) sketch.add(f);
    r.sim.mean_latency = sketch.mean();
    r.sim.p50 = sketch.p50();
    r.sim.p90 = sketch.p90();
    r.sim.p99 = sketch.p99();
    r.sim.max_latency = sketch.max();
    r.p999 = sketch.p999();
  }
  r.sim.makespan = makespan;
  for (double b : busy) {
    r.sim.utilization.push_back(makespan > 0 ? b / makespan : 0.0);
  }
  r.peak_backlog = peak;
  r.memory_bytes = memory;
  return r;
}

void expect_same_report(const StreamReport& got, const StreamReport& want,
                        const std::string& what) {
  EXPECT_EQ(got.str(), want.str()) << what;
  EXPECT_EQ(got.sim.str(), want.sim.str()) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.sim.makespan),
            std::bit_cast<std::uint64_t>(want.sim.makespan))
      << what;
  EXPECT_EQ(got.sim.utilization, want.sim.utilization) << what;
  EXPECT_EQ(got.memory_bytes, want.memory_bytes) << what;
}

// The caller's Rng ends where the per-request loop leaves it.
void expect_same_rng(Rng got, Rng want, const std::string& what) {
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got(), want()) << what;
}

// All three drivers against the per-request loop, at lengths around the
// block size and past the exact-quantile prefix (the default cap), where
// the streaming reports switch to the histogram.
TEST(Streaming, BlockLoopMatchesPerRequestReference) {
  constexpr long long kPrefix = 1 << 16;
  const int m = 12;
  const std::uint64_t seed = 91;
  ShardedEngine::Options shard_opts;
  shard_opts.shards = 3;
  shard_opts.shard_workers = 2;
  shard_opts.epoch_tasks = 50;  // epochs end mid-block
  for (long long n : {0LL, 1LL, 31LL, 32LL, 33LL, 1000LL, kPrefix + 5}) {
    const std::string what = "n=" + std::to_string(n);
    StreamConfig config;
    config.lambda = 0.7 * m;
    config.requests = n;
    config.dist = ServiceDist::kExponential;
    Rng store_rng(seed);
    const KeyValueStore store(small_store(m), store_rng);
    Rng ref_rng(seed + 1);
    const std::vector<ReferenceRequest> stream =
        per_request_stream(store, config, ref_rng);

    {  // simulate_cluster: the record-all engine, always exact.
      SimConfig batch;
      batch.lambda = config.lambda;
      batch.requests = static_cast<int>(n);
      batch.dist = config.dist;
      auto policy = make_policy("eft-min");
      Rng rng(seed + 1);
      const SimReport got = simulate_cluster(store, batch, *policy, rng);
      expect_same_rng(rng, ref_rng, what + " batch");

      auto ref_policy = make_policy("eft-min");
      OnlineEngine engine(m, *ref_policy);
      std::vector<double> flows;
      std::vector<double> busy(m, 0.0);
      for (const ReferenceRequest& r : stream) {
        const Assignment a = engine.release(
            Task{.release = r.release, .proc = r.proc, .eligible = r.eligible});
        flows.push_back(a.start + r.proc - r.release);
        busy[static_cast<std::size_t>(a.machine)] += r.proc;
      }
      StreamConfig exact = config;
      exact.exact_quantile_cap = n;
      const SimReport want =
          reference_report(exact, flows, busy,
                           std::ranges::max(engine.completions()), 0, 0)
              .sim;
      EXPECT_EQ(got.str(), want.str()) << what;
      EXPECT_EQ(got.makespan, want.makespan) << what;
      EXPECT_EQ(got.utilization, want.utilization) << what;
    }

    {  // simulate_cluster_streaming.
      auto policy = make_policy("eft-min");
      Rng rng(seed + 1);
      const StreamReport got =
          simulate_cluster_streaming(store, config, *policy, rng);
      expect_same_rng(rng, ref_rng, what + " streaming");

      auto ref_policy = make_policy("eft-min");
      StreamingEngine engine(m, *ref_policy);
      std::vector<double> flows;
      std::vector<double> busy(m, 0.0);
      long long i = 0;
      for (const ReferenceRequest& r : stream) {
        const Assignment a =
            engine.release(r.release, r.proc, r.eligible, i++);
        flows.push_back(a.start + r.proc - r.release);
        busy[static_cast<std::size_t>(a.machine)] += r.proc;
      }
      const std::size_t live = engine.memory_bytes();
      engine.drain();
      expect_same_report(
          got,
          reference_report(config, flows, busy,
                           std::ranges::max(engine.completions()),
                           engine.peak_in_flight(), live),
          what + " streaming");
    }

    {  // simulate_cluster_streaming_sharded.
      const ShardedEngine::DispatcherFactory factory = [](int) {
        return make_policy("eft-min");
      };
      Rng rng(seed + 1);
      const StreamReport got = simulate_cluster_streaming_sharded(
          store, config, factory, shard_opts, rng);
      expect_same_rng(rng, ref_rng, what + " sharded");

      ShardedEngine engine(m, factory, shard_opts);
      std::vector<double> flows;
      std::vector<double> busy(m, 0.0);
      engine.set_flow_sink([&](const ShardedEngine::FlowEvent& e) {
        flows.push_back(e.start + e.proc - e.release);
        busy[static_cast<std::size_t>(e.machine)] += e.proc;
      });
      for (const ReferenceRequest& r : stream) {
        engine.release(r.release, r.proc, r.eligible);
      }
      const std::size_t live = engine.memory_bytes();
      engine.drain();
      expect_same_report(got,
                         reference_report(config, flows, busy,
                                          engine.makespan(),
                                          engine.peak_backlog(), live),
                         what + " sharded");
    }
  }
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
