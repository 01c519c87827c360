// Figure 11: max flow time of EFT-Min / EFT-Max under overlapping and
// disjoint replication as a function of the offered average load, for the
// three popularity cases (Uniform s=0; Shuffled and Worst-case with s=1).
//
// Protocol per the paper: m = 15, k = 3, 10,000 unit tasks per run released
// by a Poisson process, 10 repetitions, median Fmax. The theoretical
// maximum load from LP (15) is printed per facet (the red vertical lines).
//
// The replicates of one facet are fanned out across the experiment runner
// (--threads N, default hardware concurrency); every run derives its RNG
// stream from replicate_seed(experiment, cell, rep), so the output is
// byte-identical at any thread count.
//
// With --trace-dir DIR the bench additionally writes, per facet, a merged
// Chrome trace (DIR/fig11_<facet>_trace.json) holding the highest-load
// rep-0 run of each series — every run tagged with its (experiment, cell,
// rep) tuple — and one metrics row per run (all loads, all reps) to
// DIR/fig11_metrics.ndjson. Each parallel job records into its own
// recorder; recorders are merged in job order, so the trace files are as
// thread-count-invariant as the tables.
#include <cctype>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "lp/maxload.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "runner/experiment.hpp"
#include "sched/engine.hpp"
#include "util/args.hpp"
#include "util/plot.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

using namespace flowsched;

namespace {

constexpr int kM = 15;
constexpr int kK = 3;

double one_fmax(std::uint64_t seed, PopularityCase pop_case, double s,
                double load_fraction, ReplicationStrategy strategy,
                TieBreakKind tie, int requests,
                SchedObserver* observer = nullptr, const RunTag& tag = {}) {
  Rng rng(seed);
  const auto pop = make_popularity(pop_case, kM, s, rng);
  KvWorkloadConfig config;
  config.m = kM;
  config.n = requests;
  config.lambda = load_fraction * kM;
  config.strategy = strategy;
  config.k = kK;
  const auto inst = generate_kv_instance(config, pop, rng);
  EftDispatcher eft(tie, seed);
  const auto sched = observer != nullptr
                         ? run_dispatcher(inst, eft, *observer, tag)
                         : run_dispatcher(inst, eft);
  return sched.max_flow();
}

std::string facet_slug(PopularityCase pop_case) {
  std::string slug = to_string(pop_case);
  for (char& c : slug) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '-';
  }
  return slug;
}

double lp_load_percent(ExperimentRunner& runner, std::uint64_t exp,
                       PopularityCase pop_case, double s,
                       ReplicationStrategy strategy, int reps) {
  return runner.median_replicates(
      exp, cell_id({1, static_cast<std::uint64_t>(pop_case),
                    static_cast<std::uint64_t>(strategy)}),
      reps, [&](std::uint64_t seed, int /*rep*/) {
        Rng rng(seed);
        const auto pop = make_popularity(pop_case, kM, s, rng);
        return 100.0 * max_load_lp(pop, replica_sets(strategy, kK, kM)).lambda / kM;
      });
}

}  // namespace

int bench_main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const int reps = args.positive("reps", 10);
  const int requests = args.positive("requests", 10000);
  const std::string trace_dir = args.get("trace-dir", "");
  ExperimentRunner runner(args.integer("threads", 0));
  args.reject_unknown();
  const std::uint64_t exp = experiment_id("fig11_simulation");
  const bool tracing = !trace_dir.empty();

  std::ofstream metrics_out;
  if (tracing) {
    const std::string path = trace_dir + "/fig11_metrics.ndjson";
    metrics_out.open(path, std::ios::binary);
    if (!metrics_out) throw std::runtime_error("cannot open " + path);
  }

  struct Facet {
    PopularityCase pop_case;
    double s;
    std::vector<int> loads;  // percent
  };
  const std::vector<Facet> facets{
      {PopularityCase::kUniform, 0.0, {20, 30, 40, 50, 60, 70, 80, 90, 95, 100}},
      {PopularityCase::kShuffled, 1.0, {10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60}},
      {PopularityCase::kWorstCase, 1.0, {10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60}},
  };

  // Thread count goes to stderr: stdout must be byte-identical at any
  // --threads value (enforced by the bench_determinism ctest).
  std::fprintf(stderr, "[runner] %d threads\n", runner.threads());
  std::printf("== Figure 11: Fmax vs average load (m=%d, k=%d, %d tasks, "
              "median of %d runs) ==\n\n", kM, kK, requests, reps);

  struct SeriesSpec {
    const char* name;
    ReplicationStrategy strategy;
    TieBreakKind tie;
  };
  const std::vector<SeriesSpec> specs{
      {"EFT-Min/Over", ReplicationStrategy::kOverlapping, TieBreakKind::kMin},
      {"EFT-Max/Over", ReplicationStrategy::kOverlapping, TieBreakKind::kMax},
      {"EFT-Min/Disj", ReplicationStrategy::kDisjoint, TieBreakKind::kMin},
      {"EFT-Max/Disj", ReplicationStrategy::kDisjoint, TieBreakKind::kMax}};

  for (const auto& facet : facets) {
    std::printf("--- %s case (s=%.1f) ---\n", to_string(facet.pop_case).c_str(),
                facet.s);
    const double lp_over =
        lp_load_percent(runner, exp, facet.pop_case, facet.s,
                        ReplicationStrategy::kOverlapping, reps);
    const double lp_disj =
        lp_load_percent(runner, exp, facet.pop_case, facet.s,
                        ReplicationStrategy::kDisjoint, reps);
    std::printf("LP max load: overlapping %.0f%%, disjoint %.0f%%\n", lp_over,
                lp_disj);

    // One flat job list for the whole facet: loads x specs x reps. The seed
    // cell deliberately ignores the tie-break so EFT-Min and EFT-Max face
    // the exact same workload in each repetition (paired comparison).
    //
    // When tracing, every job carries a MetricsCollector and the
    // highest-load rep-0 job of each series also a TraceRecorder; both are
    // per-job (no shared observer state across workers) and harvested in
    // job order below.
    struct JobResult {
      double fmax = 0;
      std::string metrics_row;
      std::shared_ptr<TraceRecorder> trace;
    };
    const int n_loads = static_cast<int>(facet.loads.size());
    const int n_specs = static_cast<int>(specs.size());
    const auto results = runner.map<JobResult>(
        n_loads * n_specs * reps, [&](int job) {
          const int rep = job % reps;
          const auto& spec = specs[static_cast<std::size_t>((job / reps) % n_specs)];
          const int load = facet.loads[static_cast<std::size_t>(job / (reps * n_specs))];
          const std::uint64_t cell =
              cell_id({static_cast<std::uint64_t>(facet.pop_case),
                       static_cast<std::uint64_t>(spec.strategy),
                       static_cast<std::uint64_t>(load)});
          const std::uint64_t seed =
              replicate_seed(exp, cell, static_cast<std::uint64_t>(rep));
          JobResult out;
          if (!tracing) {
            out.fmax = one_fmax(seed, facet.pop_case, facet.s, load / 100.0,
                                spec.strategy, spec.tie, requests);
            return out;
          }
          const RunTag tag{.experiment = "fig11_simulation",
                           .cell = cell,
                           .rep = static_cast<std::uint64_t>(rep)};
          MetricsCollector metrics;
          MulticastObserver observer({&metrics});
          if (rep == 0 && load == facet.loads.back()) {
            out.trace = std::make_shared<TraceRecorder>();
            observer.add(out.trace.get());
          }
          out.fmax = one_fmax(seed, facet.pop_case, facet.s, load / 100.0,
                              spec.strategy, spec.tie, requests, &observer, tag);
          out.metrics_row = metrics.to_json();
          return out;
        });

    if (tracing) {
      // Job order == serial order, so both files are byte-identical at any
      // --threads value.
      TraceRecorder merged;
      for (const auto& r : results) {
        metrics_out << r.metrics_row << "\n";
        if (r.trace) merged.merge(std::move(*r.trace));
      }
      const std::string path =
          trace_dir + "/fig11_" + facet_slug(facet.pop_case) + "_trace.json";
      std::ofstream out(path, std::ios::binary);
      if (!out) throw std::runtime_error("cannot open " + path);
      merged.write_json(out);
      std::fprintf(stderr, "[trace] %d runs, %zu events -> %s\n",
                   merged.runs(), merged.events(), path.c_str());
    }

    std::vector<double> fmaxes;
    fmaxes.reserve(results.size());
    for (const auto& r : results) fmaxes.push_back(r.fmax);

    TextTable table({"load %", specs[0].name, specs[1].name, specs[2].name,
                     specs[3].name});
    std::vector<std::vector<std::pair<double, double>>> series(specs.size());
    for (int li = 0; li < n_loads; ++li) {
      const int load = facet.loads[static_cast<std::size_t>(li)];
      std::vector<std::string> row{std::to_string(load)};
      for (int si = 0; si < n_specs; ++si) {
        const double fmax = median(std::span<const double>(
            fmaxes.data() + (li * n_specs + si) * reps,
            static_cast<std::size_t>(reps)));
        series[static_cast<std::size_t>(si)].emplace_back(load, fmax);
        row.push_back(TextTable::num(fmax, 1));
      }
      table.add_row(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());

    AsciiPlot plot(64, 14);
    plot.set_log_y(true);
    for (std::size_t si = 0; si < specs.size(); ++si) {
      plot.add_series(specs[si].name, series[si]);
    }
    plot.add_vline(lp_over, "LP max load, overlapping");
    plot.add_vline(lp_disj, "LP max load, disjoint");
    std::printf("%s\n", plot.render().c_str());
  }

  std::printf(
      "Expectations (paper): overlapping (solid) stays below disjoint\n"
      "(dashed) at equal load in every facet; Min == Max under Uniform;\n"
      "EFT-Max edges out EFT-Min for overlapping under Worst-case; Fmax\n"
      "diverges as the load crosses the LP threshold printed per facet.\n");
  return 0;
}

// A usage error (unknown option, stray argument, unwritable --trace-dir)
// is reported on stderr with exit status 2, like the other tools.
int main(int argc, char** argv) {
  try {
    return bench_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_fig11_simulation: %s\n", e.what());
    return 2;
  }
}
