// Extension: replication strategies under machine failures (docs/faults.md).
//
// The Section 7 kvstore comparison — overlapping (ring) vs disjoint
// replication, m = 12, k = 3, EFT-Min — re-run while servers crash and
// recover: each cell of the (strategy x failure-rate) grid simulates the
// cluster under a seeded FaultPlan whose mean time between failures walks
// down the MTBF column (inf = the fault-free baseline). Reported per cell:
// median Fmax and p99 latency over the completed requests, mean retries and
// drops per run, and the measured mean server-downtime fraction.
//
// The question the grid answers: overlapping replication keeps every key
// available as long as any of its k replicas is up, while a disjoint
// group's outage strands its keys entirely (requests park until the group
// recovers) — so the latency gap between the schemes should *widen* with
// the failure rate.
//
// Determinism and hardening (the runner contract, runner/experiment.hpp):
//  * every replicate derives all randomness — store, fault plan, arrivals —
//    from replicate_seed(experiment, cell, rep), so stdout is
//    byte-identical at any --threads (bench_determinism_failures ctest);
//  * --checkpoint FILE records each completed cell's raw replicate values
//    as hexfloats (runner/checkpoint.hpp); a killed sweep re-run with the
//    same flags resumes from the file and renders byte-identical tables
//    (bench_failures_resume ctest). --abort-after-cells N is the test hook
//    that kills the sweep after N freshly computed cells (exit 3);
//  * --watchdog SECONDS arms the per-replicate watchdog.
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "kvstore/cluster_sim.hpp"
#include "kvstore/store.hpp"
#include "runner/checkpoint.hpp"
#include "runner/experiment.hpp"
#include "sched/dispatchers.hpp"
#include "util/args.hpp"
#include "util/plot.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace flowsched;

namespace {

constexpr int kM = 12;
constexpr int kK = 3;
// Metrics per replicate, in checkpoint order.
constexpr int kMetrics = 5;  // fmax, p99, retried, dropped, downtime

struct Cell {
  ReplicationStrategy strategy;
  std::size_t rate_index;  // into the MTBF grid
};

std::vector<double> one_replicate(std::uint64_t seed, ReplicationStrategy
                                      strategy, double mtbf, double mean_down,
                                  int requests, double lambda,
                                  const RecoveryPolicy& recovery) {
  Rng rng(seed);
  StoreConfig scfg;
  scfg.m = kM;
  scfg.k = kK;
  scfg.strategy = strategy;
  KeyValueStore store(scfg, rng);

  FaultModelConfig fm;
  fm.mean_up = mtbf;  // <= 0 draws a fault-free plan
  fm.mean_down = mean_down;
  // Cover the whole arrival horizon with headroom for the backlog tail.
  fm.horizon = 1.5 * static_cast<double>(requests) / lambda;
  const FaultPlan plan = FaultPlan::random(kM, fm, rng);

  SimConfig sim;
  sim.lambda = lambda;
  sim.requests = requests;
  EftDispatcher eft(TieBreakKind::kMin, seed);
  const SimReport report = simulate_cluster(store, sim, eft, rng, nullptr,
                                            &plan, recovery);
  double down = 0;
  for (double f : report.downtime_fraction) down += f;
  if (!report.downtime_fraction.empty()) {
    down /= static_cast<double>(report.downtime_fraction.size());
  }
  return {report.max_latency, report.p99, static_cast<double>(report.retried),
          static_cast<double>(report.dropped), down};
}

}  // namespace

int bench_main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const int reps = args.positive("reps", 5);
  const int requests = args.positive("requests", 2000);
  const double load = args.num("load", 0.7);
  const std::string recovery_name = args.get("recovery", "backoff");
  const std::string checkpoint_path = args.get("checkpoint", "");
  const int abort_after = args.integer("abort-after-cells", -1);
  const double watchdog = args.num("watchdog", 0.0);
  ExperimentRunner runner(args.integer("threads", 0));
  args.reject_unknown();

  const double lambda = load * kM;
  RecoveryPolicy recovery;
  recovery.kind = parse_recovery_kind(recovery_name);

  // MTBF grid, mean time between failures per server; 0 = no failures.
  const std::vector<double> mtbf{0, 96, 48, 24, 12};
  const double mean_down = 3.0;
  const std::vector<ReplicationStrategy> strategies{
      ReplicationStrategy::kOverlapping, ReplicationStrategy::kDisjoint};

  const std::uint64_t exp = experiment_id("ext_failures");
  // The fingerprint pins everything that shapes a cell's values; a stale
  // checkpoint from a differently-configured sweep is rejected, not merged.
  const std::uint64_t fingerprint = cell_id(
      {static_cast<std::uint64_t>(reps), static_cast<std::uint64_t>(requests),
       static_cast<std::uint64_t>(load * 1e6),
       static_cast<std::uint64_t>(recovery.kind),
       static_cast<std::uint64_t>(mtbf.size())});
  std::unique_ptr<SweepCheckpoint> ckpt;
  if (!checkpoint_path.empty()) {
    ckpt = std::make_unique<SweepCheckpoint>(checkpoint_path, "ext_failures",
                                             fingerprint);
    if (ckpt->resumed() > 0) {
      std::fprintf(stderr, "[checkpoint] resumed %d cell(s) from %s\n",
                   ckpt->resumed(), checkpoint_path.c_str());
    }
  }
  if (watchdog > 0) runner.set_watchdog(watchdog);
  std::fprintf(stderr, "[runner] %d threads\n", runner.threads());

  // Cell list in render order; compute (or restore) them all up front so
  // --abort-after-cells can kill the sweep before any rendering.
  std::vector<Cell> cells;
  for (std::size_t ri = 0; ri < mtbf.size(); ++ri) {
    for (ReplicationStrategy s : strategies) cells.push_back({s, ri});
  }
  std::vector<std::vector<double>> values(cells.size());
  int computed = 0;
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const Cell& cell = cells[ci];
    const std::uint64_t cid =
        cell_id({static_cast<std::uint64_t>(cell.strategy),
                 static_cast<std::uint64_t>(cell.rate_index)});
    if (ckpt && ckpt->has(cid)) {
      values[ci] = ckpt->get(cid);
      continue;
    }
    if (abort_after >= 0 && computed >= abort_after) {
      std::fprintf(stderr,
                   "[checkpoint] aborting after %d computed cell(s) "
                   "(--abort-after-cells)\n", computed);
      return 3;
    }
    const double rate = mtbf[cell.rate_index];
    runner.set_watch_label("cell=" + std::to_string(ci));
    const auto per_rep = runner.map<std::vector<double>>(reps, [&](int rep) {
      const std::uint64_t seed =
          replicate_seed(exp, cid, static_cast<std::uint64_t>(rep));
      return one_replicate(seed, cell.strategy, rate, mean_down, requests,
                           lambda, recovery);
    });
    values[ci].reserve(static_cast<std::size_t>(reps * kMetrics));
    for (const auto& r : per_rep) {
      values[ci].insert(values[ci].end(), r.begin(), r.end());
    }
    if (ckpt) ckpt->put(cid, values[ci]);
    ++computed;
  }
  runner.set_watch_label("");

  std::printf("== Extension: replication under failures (m=%d, k=%d, "
              "EFT-Min, load %.0f%%, %d requests, %s recovery, median of %d "
              "runs) ==\n\n",
              kM, kK, 100.0 * load, requests,
              recovery_kind_name(recovery.kind), reps);

  const auto metric = [&](std::size_t ci, int which) {
    std::vector<double> v;
    v.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
      v.push_back(values[ci][static_cast<std::size_t>(r * kMetrics + which)]);
    }
    return v;
  };

  TextTable table({"MTBF", "down%", "Over Fmax", "Over p99", "Over retried",
                   "Over dropped", "Disj Fmax", "Disj p99", "Disj retried",
                   "Disj dropped"});
  std::vector<std::pair<double, double>> series_over, series_disj;
  for (std::size_t ri = 0; ri < mtbf.size(); ++ri) {
    const std::size_t over_ci = 2 * ri;
    const std::size_t disj_ci = 2 * ri + 1;
    std::vector<std::string> row;
    row.push_back(mtbf[ri] <= 0 ? "inf" : TextTable::num(mtbf[ri], 0));
    // Downtime is plan-driven, so the strategies measure the same process;
    // report the overlapping cell's mean.
    row.push_back(TextTable::num(100.0 * mean(metric(over_ci, 4)), 1));
    for (std::size_t ci : {over_ci, disj_ci}) {
      const double fmax = median(metric(ci, 0));
      row.push_back(TextTable::num(fmax, 1));
      row.push_back(TextTable::num(median(metric(ci, 1)), 1));
      row.push_back(TextTable::num(mean(metric(ci, 2)), 1));
      row.push_back(TextTable::num(mean(metric(ci, 3)), 1));
      (ci == over_ci ? series_over : series_disj)
          .emplace_back(static_cast<double>(ri), fmax);
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());

  AsciiPlot plot(64, 14);
  plot.set_log_y(true);
  plot.add_series("EFT-Min/Over", series_over);
  plot.add_series("EFT-Min/Disj", series_disj);
  std::printf("%s\n", plot.render().c_str());
  std::printf(
      "x axis: failure-rate grid index (MTBF inf -> 12). Expectation: both\n"
      "schemes degrade as servers fail more often, but disjoint degrades\n"
      "faster — a whole-group outage parks every request of its keys until\n"
      "the group recovers, while overlapping keys stay serviceable as long\n"
      "as any of their k ring replicas is up.\n");
  return 0;
}

// A usage error (unknown option, stray argument, unwritable --trace-dir)
// is reported on stderr with exit status 2, like the other tools.
int main(int argc, char** argv) {
  try {
    return bench_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_ext_failures: %s\n", e.what());
    return 2;
  }
}
