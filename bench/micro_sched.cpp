// Google-benchmark micro benches: scheduling throughput of the dispatchers
// and the FIFO event loop, plus a large-m scaling series (m up to 4096,
// fixed-size ring-interval sets) that isolates the engine hot path — the
// per-release queue-depth bookkeeping and the per-dispatch candidate scan —
// and the fault path's timeline queries as the down-interval list grows;
// plus the record-all observers: MetricsCollector on a replayed event
// stream and the auditor's end-of-run sweeps.
//
// Custom main: `micro_sched --json out.json` writes the google-benchmark
// JSON report alongside the usual ASCII console table (it is shorthand for
// --benchmark_out=out.json --benchmark_out_format=json), so perf
// trajectories can be tracked machine-readably.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "kvstore/cluster_sim.hpp"
#include "kvstore/store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/calendar.hpp"
#include "sched/engine.hpp"
#include "sched/fifo.hpp"
#include "workload/generator.hpp"
#include "workload/zipf.hpp"

namespace flowsched {
namespace {

Instance make_kv(int m, int n, RandomSets sets) {
  Rng rng(42);
  RandomInstanceOptions opts;
  opts.m = m;
  opts.n = n;
  opts.unit_tasks = true;
  opts.max_release = n / static_cast<double>(m);
  opts.sets = sets;
  return random_instance(opts, rng);
}

// Unit tasks on fixed-size ring intervals (|Mi| = k), offered load spread
// evenly (full load unless `load` says otherwise). Dispatch work is O(k)
// per task, so with k fixed the series exposes the engine's per-release
// costs as m grows: any O(m) per-release sweep would dwarf the O(k)
// dispatch at m = 4096, so the engine core settles queue depths from
// per-machine finish FIFOs (O(1) amortized per task).
Instance make_restricted(int m, int n, int k, double load = 1.0) {
  Rng rng(42);
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  double release = 0;
  for (int i = 0; i < n; ++i) {
    release += rng.exponential(load * static_cast<double>(m));
    tasks.push_back({.release = release,
                     .proc = 1.0,
                     .eligible = ProcSet::ring_interval(
                         static_cast<int>(rng.uniform_int(0, m - 1)), k, m)});
  }
  return Instance(m, std::move(tasks));
}

void BM_EftDispatch(benchmark::State& state) {
  const auto inst = make_kv(static_cast<int>(state.range(0)), 10000,
                            RandomSets::kRingIntervals);
  EftDispatcher eft(TieBreakKind::kMin);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_dispatcher(inst, eft));
  }
  state.SetItemsProcessed(state.iterations() * inst.n());
}
BENCHMARK(BM_EftDispatch)->Arg(4)->Arg(15)->Arg(64);

// The large-m scaling series (restricted sets, k = 8). ns/task should stay
// roughly flat in m now that a release does no per-machine work outside the
// eligible set; the pre-optimization engine degraded linearly in m here.
void BM_EftDispatchLargeM(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const auto inst = make_restricted(m, 10000, 8);
  EftDispatcher eft(TieBreakKind::kMin);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_dispatcher(inst, eft));
  }
  state.SetItemsProcessed(state.iterations() * inst.n());
}
BENCHMARK(BM_EftDispatchLargeM)->Arg(16)->Arg(256)->Arg(4096);

// stream-wide's shape: m = 4096, ring sets of |Mi| = 64, load 0.75. Most
// releases find an idle eligible machine, so EFT-Min stops at the first
// idle one instead of scanning all 64 frontiers twice.
void BM_EftDispatchWide(benchmark::State& state) {
  const auto inst =
      make_restricted(4096, 20000, static_cast<int>(state.range(0)), 0.75);
  EftDispatcher eft(TieBreakKind::kMin);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_dispatcher(inst, eft));
  }
  state.SetItemsProcessed(state.iterations() * inst.n());
}
BENCHMARK(BM_EftDispatchWide)->Arg(64);

// Same series for JSQ, the one dispatcher that *does* read queue depths:
// it now pays O(k) per release for them instead of O(m).
void BM_JsqDispatchLargeM(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const auto inst = make_restricted(m, 10000, 8);
  JsqDispatcher jsq(TieBreakKind::kMin);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_dispatcher(inst, jsq));
  }
  state.SetItemsProcessed(state.iterations() * inst.n());
}
BENCHMARK(BM_JsqDispatchLargeM)->Arg(16)->Arg(256)->Arg(4096);

// The observability tax. BM_EftDispatch (no observer) is the baseline the
// disabled-observer path must match within noise — the null-check guard is
// the entire difference. BM_EftDispatchObserved measures the enabled cost
// against a sink that stores every event but allocates amortized-only
// (TraceRecorder), i.e. the realistic tracing overhead per task.
void BM_EftDispatchObserved(benchmark::State& state) {
  const auto inst = make_kv(static_cast<int>(state.range(0)), 10000,
                            RandomSets::kRingIntervals);
  EftDispatcher eft(TieBreakKind::kMin);
  for (auto _ : state) {
    TraceRecorder trace;
    benchmark::DoNotOptimize(run_dispatcher(inst, eft, trace));
  }
  state.SetItemsProcessed(state.iterations() * inst.n());
}
BENCHMARK(BM_EftDispatchObserved)->Arg(4)->Arg(15)->Arg(64);

void BM_FifoEventLoop(benchmark::State& state) {
  const auto inst = make_kv(static_cast<int>(state.range(0)), 10000,
                            RandomSets::kUnrestricted);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fifo_schedule(inst));
  }
  state.SetItemsProcessed(state.iterations() * inst.n());
}
BENCHMARK(BM_FifoEventLoop)->Arg(4)->Arg(15)->Arg(64);

void BM_JsqDispatch(benchmark::State& state) {
  const auto inst = make_kv(15, 10000, RandomSets::kRingIntervals);
  JsqDispatcher jsq(TieBreakKind::kMin);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_dispatcher(inst, jsq));
  }
  state.SetItemsProcessed(state.iterations() * inst.n());
}
BENCHMARK(BM_JsqDispatch);

void BM_RoundRobinDispatch(benchmark::State& state) {
  // Hits the per-set cursor map on every dispatch; the cached ProcSet hash
  // keeps this O(1) instead of re-walking the machine vector.
  const auto inst = make_restricted(64, 10000, 8);
  RoundRobinDispatcher rr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_dispatcher(inst, rr));
  }
  state.SetItemsProcessed(state.iterations() * inst.n());
}
BENCHMARK(BM_RoundRobinDispatch);

// The streaming kvstore pipeline end to end (docs/streaming.md): Poisson
// arrivals -> alias-method key draw -> EFT dispatch through the
// StreamingEngine's calendar queue -> log-linear flow histogram. items/sec IS
// requests/sec — the headline EXPERIMENTS.md quotes. Load is pinned at
// rho = 0.75 with mild skew so every cell is stable and the backlog (and
// the engine's O(backlog) memory) stays bounded as m grows. Arguments are
// (m, k): the k = 3 ring cells, plus the e2e `stream-wide` shape
// (m = 4096, k = 64), whose 6.5 MB alias table is far out of cache: the
// cell where the request loop's block-ahead prefetching matters.
void BM_StreamingThroughput(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  StoreConfig store_config;
  store_config.m = m;
  store_config.keys = 100 * m;
  store_config.zipf_s = 0.5;
  store_config.k = static_cast<int>(state.range(1));
  Rng store_rng(42);
  const KeyValueStore store(store_config, store_rng);
  StreamConfig config;
  config.lambda = 0.75 * m;
  config.requests = 20000;
  config.dist = ServiceDist::kExponential;
  for (auto _ : state) {
    EftDispatcher eft(TieBreakKind::kMin);
    Rng rng(7);
    benchmark::DoNotOptimize(
        simulate_cluster_streaming(store, config, eft, rng));
  }
  state.SetItemsProcessed(state.iterations() * config.requests);
}
BENCHMARK(BM_StreamingThroughput)
    ->Args({16, 3})
    ->Args({256, 3})
    ->Args({4096, 3})
    ->Args({4096, 64});

// Guard for the overflow-heap drain (sched/calendar.hpp): a tiny capped
// ring with far-future pushes forces every entry through the overflow heap
// and back into the ring via drain_overflow. The drain sizes each bucket
// with one count pass + geometric reserve floor before moving entries; a
// regression to per-entry push_back growth (or to entry-count reserve calls
// on every drain) shows up here as a step in ns/op.
void BM_CalendarOverflowDrain(benchmark::State& state) {
  const int n = 20000;
  for (auto _ : state) {
    CalendarQueue<int> queue(0.125, 8, 64);  // 8-unit horizon, capped
    for (int i = 0; i < n; ++i) {
      queue.push(static_cast<double>((i * 37) % 4096), i);  // mostly overflow
    }
    long long sum = 0;
    while (!queue.empty()) sum += queue.pop();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CalendarOverflowDrain);

void BM_KvInstanceGeneration(benchmark::State& state) {
  const auto pop = zipf_weights(15, 1.0);
  KvWorkloadConfig config;
  config.m = 15;
  config.n = 10000;
  config.lambda = 7.5;
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_kv_instance(config, pop, rng));
  }
  state.SetItemsProcessed(state.iterations() * config.n);
}
BENCHMARK(BM_KvInstanceGeneration);

void BM_ScheduleValidation(benchmark::State& state) {
  const auto inst = make_kv(15, 10000, RandomSets::kRingIntervals);
  EftDispatcher eft(TieBreakKind::kMin);
  const auto sched = run_dispatcher(inst, eft);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.validate());
  }
}
BENCHMARK(BM_ScheduleValidation);

// Forwards a run to `inner`, timing only its on_run_end.
class RunEndTimer final : public SchedObserver {
 public:
  explicit RunEndTimer(SchedObserver& inner) : inner_(inner) {}
  void on_run_begin(const RunInfo& info) override { inner_.on_run_begin(info); }
  void on_event(const ObsEvent& e) override { inner_.on_event(e); }
  void on_run_end(double makespan) override {
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    inner_.on_run_end(makespan);
    seconds_ = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  double seconds() const { return seconds_; }

 private:
  SchedObserver& inner_;
  double seconds_ = 0;
};

// The auditor's end-of-run sweeps ([overlap], [busy-idle],
// [work-conservation]) on an EFT-Min run of 100k unit tasks on ring sets
// (k = 3) at full load, so most tasks wait and every wait is searched for
// idle gaps on each eligible machine. Only on_run_end is timed. The sweeps
// bucket the records by machine once, so the time should not grow with m;
// a per-machine scan of all n records would grow linearly.
void BM_AuditorRunEnd(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const auto inst = make_restricted(m, 100000, 3);
  for (auto _ : state) {
    EftDispatcher eft(TieBreakKind::kMin);
    InvariantAuditor auditor;
    RunEndTimer timed(auditor);
    run_dispatcher(inst, eft, timed);
    if (!auditor.ok()) state.SkipWithError(auditor.violations()[0].c_str());
    state.SetIterationTime(timed.seconds());
  }
  state.SetItemsProcessed(state.iterations() * inst.n());
}
BENCHMARK(BM_AuditorRunEnd)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Records a run's events for replay; the processing-set pointer is
// callback-scoped, so it is dropped.
class EventRecorder final : public SchedObserver {
 public:
  void on_run_begin(const RunInfo& info) override { info_ = info; }
  void on_event(const ObsEvent& e) override {
    events_.push_back(e);
    events_.back().eligible = nullptr;
  }
  void on_run_end(double makespan) override { makespan_ = makespan; }

  void replay(SchedObserver& sink) const {
    sink.on_run_begin(info_);
    for (const ObsEvent& e : events_) sink.on_event(e);
    sink.on_run_end(makespan_);
  }
  std::size_t events() const { return events_.size(); }

 private:
  RunInfo info_;
  std::vector<ObsEvent> events_;
  double makespan_ = 0;
};

// MetricsCollector alone on the e2e `batch-audited` shape at 100k
// requests (m = 64, ring k = 3, Zipf 0.5, exponential service, load 0.75):
// one recorded EFT-Min event stream replayed into a fresh collector, so
// only on_event and on_run_end are timed. Non-dyadic flows at unit weight
// are the collector's common case: the unit-weight flow term and the
// shift-binned flow histogram both serve it without Rational arithmetic.
void BM_MetricsCollectorEvents(benchmark::State& state) {
  StoreConfig store_config;
  store_config.m = 64;
  store_config.keys = 6400;
  store_config.zipf_s = 0.5;
  Rng store_rng(42);
  const KeyValueStore store(store_config, store_rng);
  SimConfig config;
  config.lambda = 48;
  config.requests = 100000;
  config.dist = ServiceDist::kExponential;
  EftDispatcher eft(TieBreakKind::kMin);
  Rng rng(7);
  EventRecorder recorded;
  simulate_cluster(store, config, eft, rng, &recorded);
  for (auto _ : state) {
    MetricsCollector metrics;
    recorded.replay(metrics);
    benchmark::DoNotOptimize(metrics.mean_flow());
  }
  state.SetItemsProcessed(state.iterations() * config.requests);
  state.counters["events"] = static_cast<double>(recorded.events());
}
BENCHMARK(BM_MetricsCollectorEvents)->Unit(benchmark::kMillisecond);

// The fault path of OnlineEngine (degraded set, park, kill at the crash)
// on 10k unit tasks, m = 16, k = 3 ring sets at 0.8 load, under a plan
// with `I` down intervals per machine. Crashes during the stream follow
// MTBF 24 + repair 2; the rest of each machine's I intervals lie before
// the first release, so every series runs the same schedule and only the
// length of the list each query searches grows. The timeline queries
// binary-search it, so the time per request should stay flat in I; a
// scan from t = 0 would grow linearly.
void BM_FaultEngineRelease(benchmark::State& state) {
  constexpr int kM = 16;
  constexpr int kN = 10000;
  const int intervals = static_cast<int>(state.range(0));
  const double start = intervals;  // history intervals sit in [0, start)
  Rng rng(42);
  std::vector<Task> tasks;
  tasks.reserve(kN);
  double release = start;
  for (int i = 0; i < kN; ++i) {
    release += rng.exponential(0.8 * kM);
    tasks.push_back({.release = release,
                     .proc = 1.0,
                     .eligible = ProcSet::ring_interval(
                         static_cast<int>(rng.uniform_int(0, kM - 1)), 3, kM)});
  }
  const Instance inst(kM, std::move(tasks));

  FaultModelConfig model;
  model.mean_up = 24.0;
  model.mean_down = 2.0;
  model.horizon = release - start + 64;
  const FaultPlan live = FaultPlan::random(kM, model, rng);
  FaultPlan plan(kM);
  for (int j = 0; j < kM; ++j) {
    const auto& downs = live.downs(j);
    const int history = intervals - static_cast<int>(downs.size());
    if (history < 0) {
      state.SkipWithError("more live crashes than intervals");
      return;
    }
    for (int h = 0; h < history; ++h) plan.add_down(j, h, h + 0.5);
    for (const DownInterval& d : downs)
      plan.add_down(j, start + d.from, start + d.to);
  }

  for (auto _ : state) {
    EftDispatcher eft(TieBreakKind::kMin);
    benchmark::DoNotOptimize(
        run_dispatcher_faulty(inst, eft, plan, RecoveryPolicy{}));
  }
  state.SetItemsProcessed(state.iterations() * inst.n());
}
BENCHMARK(BM_FaultEngineRelease)->Arg(64)->Arg(640)->Arg(6400);

}  // namespace
}  // namespace flowsched

int main(int argc, char** argv) {
  // Translate `--json <path>` into google-benchmark's out/out_format pair
  // before Initialize() consumes the argument list.
  std::vector<std::string> arg_storage;
  arg_storage.reserve(static_cast<std::size_t>(argc) + 2);
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      arg_storage.push_back(std::string("--benchmark_out=") + argv[++i]);
      arg_storage.push_back("--benchmark_out_format=json");
    } else {
      arg_storage.push_back(argv[i]);
    }
  }
  std::vector<char*> arg_ptrs;
  arg_ptrs.reserve(arg_storage.size());
  for (auto& arg : arg_storage) arg_ptrs.push_back(arg.data());
  int patched_argc = static_cast<int>(arg_ptrs.size());
  benchmark::Initialize(&patched_argc, arg_ptrs.data());
  if (benchmark::ReportUnrecognizedArguments(patched_argc, arg_ptrs.data())) {
    return 1;
  }
  // Provenance of *our* code in the JSON context. google-benchmark's own
  // "library_build_type" describes how the (distro-packaged) benchmark
  // library was compiled, not this binary — tools/bench_trajectory.sh keys
  // its debug-build refusal on this field instead.
#ifdef NDEBUG
  benchmark::AddCustomContext("flowsched_build_type", "release");
#else
  benchmark::AddCustomContext("flowsched_build_type", "debug");
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
