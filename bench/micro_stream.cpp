// Google-benchmark micro benches of the streaming/sharded hot path: the
// alias-method key draw, one flow sample into the report's histogram, the
// StreamingEngine release loop (settle + dispatch) on a pre-generated
// stream, balanced and with one overloaded replica set, and the
// ShardedEngine epoch pipeline (route -> parallel execute -> merge) at
// growing shard counts with a pinned worker team. items/sec IS dispatched tasks/sec, so the sharded
// series over S divided by the S=1 row is the intra-run parallel speedup
// tools/bench_trajectory.sh tracks (the full layout grid with Fmax cost
// lives in bench_ext_shard).
//
// Custom main: `micro_stream --json out.json` writes the google-benchmark
// JSON report alongside the console table, exactly like micro_sched.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "obs/sketch.hpp"
#include "sched/dispatchers.hpp"
#include "sched/sharded/sharded.hpp"
#include "sched/streaming.hpp"
#include "util/rng.hpp"
#include "workload/alias.hpp"

namespace flowsched {
namespace {

// Disjoint k-aligned blocks at high load: the decision-free sharding regime
// (see bench_ext_shard for the overlapping layouts).
std::vector<Task> make_stream(int m, int n, int k) {
  Rng rng(42);
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  double t = 0;
  for (int i = 0; i < n; ++i) {
    t += rng.exponential(0.85 * m);
    const int block = static_cast<int>(rng.uniform_int(0, m / k - 1)) * k;
    tasks.push_back({.release = t,
                     .proc = rng.exponential(1.0),
                     .eligible = ProcSet::interval(block, block + k - 1)});
  }
  return tasks;
}

// One key draw from a Zipf(0.5) alias table at the key counts of
// stream-ring (25 600) and stream-wide (409 600); at the larger size the
// table no longer fits in cache and a draw costs one column miss.
void BM_AliasSample(benchmark::State& state) {
  const AliasSampler sampler(static_cast<int>(state.range(0)), 0.5);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasSample)->Arg(25600)->Arg(409600);

// One Exp(1) flow into StreamingQuantiles: the per-request cost of the
// sketch regime's quantiles (obs.aggregate_ns_per_req in bench/e2e).
void BM_StreamingQuantilesAdd(benchmark::State& state) {
  std::vector<double> flows(std::size_t{1} << 16);
  Rng rng(11);
  for (double& f : flows) f = rng.exponential(1.0);
  StreamingQuantiles sq;
  std::size_t i = 0;
  for (auto _ : state) {
    sq.add(flows[i]);
    benchmark::ClobberMemory();
    i = (i + 1) & (flows.size() - 1);
  }
  benchmark::DoNotOptimize(sq.p99());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamingQuantilesAdd);

void BM_StreamingEngineHotLoop(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const std::vector<Task> tasks = make_stream(m, 50000, 8);
  for (auto _ : state) {
    auto policy = make_eft_min();
    StreamingEngine engine(m, *policy);
    for (const Task& task : tasks) {
      benchmark::DoNotOptimize(engine.release(task));
    }
    engine.drain();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tasks.size()));
}
BENCHMARK(BM_StreamingEngineHotLoop)->Arg(16)->Arg(256)->Arg(4096);

// stream-hot's shape at a micro scale: ring replica sets of three at 0.75 m
// arrivals per unit, with one request in ten on the hot set {0, 1, 2}. That
// set gets about 6x its capacity, so its three machines' queues grow to
// ~10^4 each by the end of a run, while the rest of the cluster drains.
std::vector<Task> make_hot_stream(int m, int n) {
  Rng rng(43);
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  double t = 0;
  for (int i = 0; i < n; ++i) {
    t += rng.exponential(0.75 * m);
    const int first = rng.uniform() < 0.1
                          ? 0
                          : static_cast<int>(rng.uniform_int(0, m - 3));
    tasks.push_back({.release = t,
                     .proc = rng.exponential(1.0),
                     .eligible = ProcSet::interval(first, first + 2)});
  }
  return tasks;
}

void BM_StreamingEngineDeepBacklog(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const std::vector<Task> tasks = make_hot_stream(m, 200000);
  std::size_t peak = 0;
  for (auto _ : state) {
    auto policy = make_eft_min();
    StreamingEngine engine(m, *policy);
    for (const Task& task : tasks) {
      benchmark::DoNotOptimize(engine.release(task));
    }
    peak = engine.peak_in_flight();
    engine.drain();
  }
  state.counters["peak_backlog"] = static_cast<double>(peak);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tasks.size()));
}
BENCHMARK(BM_StreamingEngineDeepBacklog)->Arg(256);

// Shard-count series at m = 4096 (worker team pinned to S; engine
// construction — thread spawn included — is inside the timed region and
// amortizes over the 50k releases).
void BM_ShardedEngineHotLoop(benchmark::State& state) {
  const int m = 4096;
  const int shards = static_cast<int>(state.range(0));
  const std::vector<Task> tasks = make_stream(m, 50000, 8);
  for (auto _ : state) {
    ShardedEngine::Options opts;
    opts.shards = shards;
    opts.shard_workers = shards;
    ShardedEngine engine(
        m, [](int) { return make_eft_min(); }, opts);
    for (const Task& task : tasks) {
      engine.release(task.release, task.proc, task.eligible);
    }
    engine.drain();
    benchmark::DoNotOptimize(engine.max_flow());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tasks.size()));
}
BENCHMARK(BM_ShardedEngineHotLoop)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace flowsched

int main(int argc, char** argv) {
  // Translate `--json <path>` into google-benchmark's out/out_format pair
  // before Initialize() consumes the argument list (same as micro_sched).
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
#ifdef NDEBUG
  benchmark::AddCustomContext("flowsched_build_type", "release");
#else
  benchmark::AddCustomContext("flowsched_build_type", "debug");
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
