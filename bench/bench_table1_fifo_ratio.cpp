// Table 1 (empirical slice): FIFO / EFT competitive behaviour on parallel
// machines without processing set restrictions.
//
// The paper's Table 1 is a summary of known guarantees; the measurable rows
// are FIFO's (3 - 2/m)-competitiveness (Theorem 1) and FIFO optimality for
// unit tasks (Theorem 2). For each m we run random instances and report the
// worst observed Fmax / LB ratio (LB is a certified lower bound on OPT, so
// the printed ratio over-estimates the true one) next to the theoretical
// ceiling 3 - 2/m, plus the exact ratio 1.000 for unit tasks.
//
// Trials are independent seeded jobs on the experiment runner (--threads N);
// the worst-ratio reduction runs in trial order, so output is byte-identical
// at any thread count.
#include <cstdio>
#include <exception>

#include "offline/lower_bounds.hpp"
#include "offline/unit_optimal.hpp"
#include "runner/experiment.hpp"
#include "sched/fifo.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

using namespace flowsched;

int bench_main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const int trials = args.integer("trials", 40);
  ExperimentRunner runner(args.integer("threads", 0));
  args.reject_unknown();
  const std::uint64_t exp = experiment_id("table1_fifo_ratio");

  std::fprintf(stderr, "[runner] %d threads\n", runner.threads());
  std::printf("== Table 1 (empirical): FIFO on P|online-ri|Fmax ==\n\n");

  TextTable table({"m", "instances", "worst Fmax/LB", "bound 3-2/m",
                   "unit-task Fmax/OPT"});

  for (int m : {1, 2, 3, 5, 8, 12}) {
    const auto ratios = runner.replicates(
        exp, cell_id({0, static_cast<std::uint64_t>(m)}), trials,
        [m](std::uint64_t seed, int /*rep*/) {
          Rng rng(seed);
          RandomInstanceOptions opts;
          opts.m = m;
          opts.n = 60;
          opts.max_release = 15.0;
          const auto inst = random_instance(opts, rng);
          const auto sched = fifo_schedule(inst);
          const double lb = opt_lower_bound(inst);
          return lb > 0 ? sched.max_flow() / lb : 0.0;
        });
    double worst_ratio = 0;
    for (double r : ratios) worst_ratio = std::max(worst_ratio, r);

    // Theorem 2: unit tasks, integer releases -> FIFO is optimal.
    const auto unit_ratios = runner.replicates(
        exp, cell_id({1, static_cast<std::uint64_t>(m)}), 10,
        [m](std::uint64_t seed, int /*rep*/) {
          Rng rng(seed);
          RandomInstanceOptions opts;
          opts.m = m;
          opts.n = 30;
          opts.unit_tasks = true;
          opts.integer_releases = true;
          opts.max_release = 10.0;
          const auto inst = random_instance(opts, rng);
          const auto sched = fifo_schedule(inst);
          return sched.max_flow() / unit_optimal_fmax(inst);
        });
    double worst_unit = 0;
    for (double r : unit_ratios) worst_unit = std::max(worst_unit, r);

    table.add_row({std::to_string(m), std::to_string(trials),
                   TextTable::num(worst_ratio, 3),
                   TextTable::num(3.0 - 2.0 / m, 3),
                   TextTable::num(worst_unit, 3)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Expectation: column 3 <= column 4 on every row (Theorem 1); the last\n"
      "column is exactly 1.000 (Theorem 2).\n");
  return 0;
}

// A usage error (unknown option, stray argument, unwritable --trace-dir)
// is reported on stderr with exit status 2, like the other tools.
int main(int argc, char** argv) {
  try {
    return bench_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_table1_fifo_ratio: %s\n", e.what());
    return 2;
  }
}
