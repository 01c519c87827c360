// Google-benchmark micro benches: the max-load solvers and the unit-task
// optimum oracle.
//
// The max-load series covers the LP (15) backends across m:
//   * BM_MaxLoad        — one-shot max_load_lp: the Dinic network built
//     once, Dinkelbach steps to the binding owner set, transfers read off
//     the owner edges;
//   * BM_MaxLoadTableau — the dense two-phase tableau oracle, only up to
//     m = 128 (it is the baseline: EXPERIMENTS.md records the ratio there);
//   * BM_MaxLoadWindows — the closed form for ring and block layouts
//     (O(m^2) window scan, no LP), on BM_MaxLoad's cell with every machine
//     up: what the replication controller pays per candidate and the
//     Fig. 10 sweep and the planner pay per cell.
//     Both series include m = 64, the faults-adaptive cluster size.
//
// Custom main: `micro_lp --json out.json` writes the google-benchmark JSON
// report alongside the usual ASCII console table (shorthand for
// --benchmark_out=out.json --benchmark_out_format=json), so perf
// trajectories can be tracked machine-readably (tools/bench_trajectory.sh).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "lp/maxload.hpp"
#include "offline/unit_optimal.hpp"
#include "workload/generator.hpp"
#include "workload/popularity.hpp"
#include "workload/replication.hpp"

namespace flowsched {
namespace {

constexpr int kReplication = 3;

std::vector<double> popularity_for(int m, std::uint64_t seed) {
  Rng rng(seed);
  return make_popularity(PopularityCase::kShuffled, m, 1.0, rng);
}

void BM_MaxLoad(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const auto pop = popularity_for(m, 7);
  const auto sets = replica_sets(ReplicationStrategy::kOverlapping, kReplication, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_load_lp(pop, sets));
  }
}
BENCHMARK(BM_MaxLoad)
    ->Arg(8)->Arg(15)->Arg(30)->Arg(64)->Arg(128)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_MaxLoadTableau(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const auto pop = popularity_for(m, 7);
  const auto sets = replica_sets(ReplicationStrategy::kOverlapping, kReplication, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_load_lp_tableau(pop, sets));
  }
}
BENCHMARK(BM_MaxLoadTableau)
    ->Arg(8)->Arg(15)->Arg(30)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_MaxLoadWindows(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const auto pop = popularity_for(m, 7);
  const std::vector<std::uint8_t> up(static_cast<std::size_t>(m), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_load_windows(
        pop, ReplicationStrategy::kOverlapping, kReplication, up));
  }
}
BENCHMARK(BM_MaxLoadWindows)
    ->Arg(8)->Arg(15)->Arg(30)->Arg(64)->Arg(128)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_UnitOptimalOracle(benchmark::State& state) {
  Rng rng(11);
  RandomInstanceOptions opts;
  opts.m = 6;
  opts.n = static_cast<int>(state.range(0));
  opts.unit_tasks = true;
  opts.integer_releases = true;
  opts.max_release = opts.n / 3.0;
  opts.sets = RandomSets::kIntervals;
  const auto inst = random_instance(opts, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(unit_optimal_fmax(inst));
  }
}
BENCHMARK(BM_UnitOptimalOracle)->Arg(50)->Arg(150)->Arg(400);

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
