// Extension: sharded multi-dispatcher engine — throughput vs Fmax cost.
//
// The experiment behind docs/sharding.md: pre-generate one arrival stream
// per (m, layout) cell, then push the identical stream through the
// single-queue StreamingEngine and through ShardedEngine at S in
// {1, 2, 4, 8, 16} with a pinned worker team of S. Two layouts bracket the
// structure spectrum:
//   * disjoint  — k-aligned blocks (the paper's disjoint families). Every
//     M_i is shard-local at every S here, so sharding is decision-free:
//     Fmax is bit-identical to the single queue and the speedup is pure.
//   * ring      — overlapping ring intervals (Section 5's ring topology).
//     Boundary tasks lose global EFT at shard seams; the Fmax column prices
//     that loss while boundary%% / stolen show how much cross-shard traffic
//     the router and the deterministic steal path carried.
//
// stdout is the deterministic table (schedule quality + routing counters —
// byte-identical at any worker count, any machine); wall-clock throughput
// and speedup go to stderr. --assert-speedup X turns the headline claim
// (disjoint, largest m, S=8: >= X times the single-queue dispatch
// throughput) into an exit status for the perf ctest/scripts.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "sched/dispatchers.hpp"
#include "sched/sharded/sharded.hpp"
#include "sched/streaming.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace flowsched;

namespace {

struct Workload {
  std::string layout;
  int m = 0;
  std::vector<Task> tasks;
};

Workload make_workload(const std::string& layout, int m, int n, int k,
                       std::uint64_t seed) {
  Workload w;
  w.layout = layout;
  w.m = m;
  w.tasks.reserve(static_cast<std::size_t>(n));
  Rng rng(seed);
  double t = 0;
  const double lambda = 0.85 * m;  // high but stable offered load
  for (int i = 0; i < n; ++i) {
    t += rng.exponential(lambda);
    ProcSet set;
    if (layout == "disjoint") {
      const int block =
          static_cast<int>(rng.uniform_int(0, m / k - 1)) * k;
      set = ProcSet::interval(block, block + k - 1);
    } else {
      set = ProcSet::ring_interval(
          static_cast<int>(rng.uniform_int(0, m - 1)), k, m);
    }
    w.tasks.push_back(
        {.release = t, .proc = rng.exponential(1.0), .eligible = std::move(set)});
  }
  return w;
}

struct CellResult {
  double fmax = 0;
  double mean_flow = 0;
  long long boundary = 0;
  long long stolen = 0;
  double tasks_per_sec = 0;
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Single-queue reference: the engine-only hot loop (stream pre-generated,
// flow stats folded inline — the same accounting ShardedEngine's merge
// does).
CellResult run_single(const Workload& w, int reps) {
  CellResult r;
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    auto policy = make_eft_min();
    StreamingEngine engine(w.m, *policy);
    double fmax = 0, sum = 0;
    const double t0 = now_seconds();
    for (const Task& task : w.tasks) {
      const Assignment a = engine.release(task);
      const double flow = a.start + task.proc - task.release;
      sum += flow;
      fmax = std::max(fmax, flow);
    }
    engine.drain();
    best = std::min(best, now_seconds() - t0);
    r.fmax = fmax;
    r.mean_flow = sum / static_cast<double>(w.tasks.size());
  }
  r.tasks_per_sec = static_cast<double>(w.tasks.size()) / best;
  return r;
}

CellResult run_sharded_cell(const Workload& w, int shards, int reps) {
  CellResult r;
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    ShardedEngine::Options opts;
    opts.shards = shards;
    opts.shard_workers = shards;  // pinned: measure the full team
    ShardedEngine engine(
        w.m, [](int) { return make_eft_min(); }, opts);
    const double t0 = now_seconds();
    for (const Task& task : w.tasks) {
      engine.release(task.release, task.proc, task.eligible);
    }
    engine.drain();
    best = std::min(best, now_seconds() - t0);
    r.fmax = engine.max_flow();
    r.mean_flow = engine.mean_flow();
    r.boundary = engine.boundary_tasks();
    r.stolen = engine.stolen_tasks();
  }
  r.tasks_per_sec = static_cast<double>(w.tasks.size()) / best;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParser args(argc, argv);
    const int requests = args.positive("requests", 200000);
    const int k = args.integer("k", 8);
    const int only_m = args.integer("m", 0);  // 0 = the full {256, 4096} grid
    const int reps = args.positive("reps", 3);
    const std::uint64_t seed = args.uint64("seed", 1);
    const double assert_speedup = args.num("assert-speedup", 0.0);
    args.reject_unknown();

    std::vector<int> ms = only_m > 0 ? std::vector<int>{only_m}
                                     : std::vector<int>{256, 4096};
    const std::vector<int> shard_counts = {1, 2, 4, 8, 16};

    std::printf(
        "== Extension: sharded dispatch — Fmax cost per layout (k=%d, "
        "n=%d) ==\n\n",
        k, requests);
    TextTable table({"layout", "m", "S", "Fmax", "mean flow", "boundary %",
                     "stolen"});
    std::fprintf(stderr, "# wall-clock (best of %d reps)\n", reps);
    std::fprintf(stderr, "# layout m S tasks/sec speedup-vs-1q\n");

    double headline_speedup = -1;
    const int headline_m = ms.back();
    for (const std::string& layout : {std::string("disjoint"),
                                      std::string("ring")}) {
      for (int m : ms) {
        if (m % k != 0) continue;
        const Workload w = make_workload(layout, m, requests, k, seed);
        const CellResult single = run_single(w, reps);
        table.add_row({layout, std::to_string(m), "1q",
                       TextTable::num(single.fmax, 3),
                       TextTable::num(single.mean_flow, 4), "0.00", "0"});
        std::fprintf(stderr, "%s %d 1q %.3g 1.00\n", layout.c_str(), m,
                     single.tasks_per_sec);
        for (int shards : shard_counts) {
          if (shards > m) continue;
          const CellResult cell = run_sharded_cell(w, shards, reps);
          const double boundary_pct =
              100.0 * static_cast<double>(cell.boundary) /
              static_cast<double>(requests);
          table.add_row({layout, std::to_string(m), std::to_string(shards),
                         TextTable::num(cell.fmax, 3),
                         TextTable::num(cell.mean_flow, 4),
                         TextTable::num(boundary_pct, 2),
                         std::to_string(cell.stolen)});
          const double speedup = cell.tasks_per_sec / single.tasks_per_sec;
          std::fprintf(stderr, "%s %d %d %.3g %.2f\n", layout.c_str(), m,
                       shards, cell.tasks_per_sec, speedup);
          if (layout == "disjoint" && m == headline_m && shards == 8) {
            headline_speedup = speedup;
          }
        }
      }
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Reading: on the disjoint layout every M_i is shard-local, so every\n"
        "S row repeats the 1q schedule bit-for-bit (boundary %% = 0) and the\n"
        "speedup (stderr) is pure. The overlapping ring pays for losing\n"
        "global EFT at shard seams: boundary tasks dispatch over their\n"
        "intersection with one shard's range, and Fmax drifts up with S —\n"
        "the measured price docs/sharding.md discusses against Th. 6.\n");

    if (assert_speedup > 0) {
      // A single-core host cannot exhibit parallel speedup no matter how
      // good the engine is; failing there would blame the code for the
      // hardware. Report SKIP and succeed instead.
      if (std::thread::hardware_concurrency() <= 1) {
        std::fprintf(stderr,
                     "SPEEDUP ASSERT SKIP: single-core host "
                     "(hardware_concurrency=%u) — parallel speedup is not "
                     "measurable here\n",
                     std::thread::hardware_concurrency());
        return 0;
      }
      if (headline_speedup < 0) {
        std::fprintf(stderr,
                     "SPEEDUP ASSERT UNRESOLVED: no disjoint m=%d S=8 cell "
                     "in this grid\n",
                     headline_m);
        return 2;
      }
      if (headline_speedup < assert_speedup) {
        std::fprintf(stderr,
                     "SPEEDUP BOUND VIOLATED: disjoint m=%d S=8 reached "
                     "%.2fx < asserted %.2fx\n",
                     headline_m, headline_speedup, assert_speedup);
        return 1;
      }
      std::fprintf(stderr, "speedup assert ok: %.2fx >= %.2fx\n",
                   headline_speedup, assert_speedup);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_ext_shard: %s\n", e.what());
    return 2;
  }
}
