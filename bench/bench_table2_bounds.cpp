// Table 2: competitive-ratio guarantees for P|online-ri, Mi|Fmax under
// structured processing sets. Each row runs the corresponding adversary
// construction against the matching algorithm class and prints the
// theorem's guaranteed lower bound next to the empirically achieved ratio.
//
// Each row is an independent job on the experiment runner (--threads N):
// every job builds its own dispatcher and adversary, and rows are collected
// in table order, so output is byte-identical at any thread count.
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "adversary/inclusive.hpp"
#include "adversary/interval2.hpp"
#include "adversary/ksize.hpp"
#include "adversary/nested.hpp"
#include "adversary/smalltask.hpp"
#include "adversary/th8_stream.hpp"
#include "offline/unit_optimal.hpp"
#include "runner/experiment.hpp"
#include "sched/engine.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "workload/replication.hpp"

using namespace flowsched;

namespace {

using Row = std::vector<std::string>;

Row adversary_row(const std::string& structure, const std::string& alg,
                  const std::string& thm, const AdversaryResult& r) {
  return {structure, alg, thm, TextTable::num(r.lower_bound, 3),
          TextTable::num(r.ratio(), 3), TextTable::num(r.achieved_fmax, 3),
          TextTable::num(r.opt_fmax, 3)};
}

}  // namespace

int bench_main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  ExperimentRunner runner(args.integer("threads", 0));
  args.reject_unknown();
  const std::uint64_t exp = experiment_id("table2_bounds");

  std::fprintf(stderr, "[runner] %d threads\n", runner.threads());
  std::printf("== Table 2: bounds under structured processing sets ==\n\n");
  TextTable table({"structure", "algorithm", "theorem", "guaranteed",
                   "measured ratio", "alg Fmax", "OPT"});

  const std::vector<std::function<Row()>> rows{
      // Theorem 3: inclusive sets vs immediate dispatch,
      // bound floor(log2 m + 1).
      [] {
        EftDispatcher eft(TieBreakKind::kMin);
        return adversary_row("inclusive", "EFT-Min (imm. dispatch)", "Th. 3",
                             run_th3_inclusive(eft, 16, 1000.0));
      },
      // Theorem 4: |Mi| = k vs immediate dispatch, bound floor(log_k m).
      [] {
        EftDispatcher eft(TieBreakKind::kMin);
        return adversary_row("|Mi|=k (k=3)", "EFT-Min (imm. dispatch)", "Th. 4",
                             run_th4_ksize(eft, 27, 3, 1000.0));
      },
      // Theorem 5: nested sets vs any online algorithm,
      // bound (log2 m + 2)/3.
      [] {
        EftDispatcher eft(TieBreakKind::kMin);
        return adversary_row("nested", "EFT-Min (online)", "Th. 5",
                             run_th5_nested(eft, 16));
      },
      // Corollary 1: disjoint intervals of size k, EFT is
      // (3 - 2/k)-competitive. Measured as the worst ratio over
      // adversarial-ish random disjoint workloads vs the exact unit-task
      // optimum.
      [exp] {
        const int m = 9;
        const int k = 3;
        const auto blocks = replica_sets(ReplicationStrategy::kDisjoint, k, m);
        double worst = 0;
        double worst_alg = 0;
        double worst_opt = 1;
        for (int trial = 0; trial < 30; ++trial) {
          Rng rng(replicate_seed(exp, cell_id({3}),
                                 static_cast<std::uint64_t>(trial)));
          std::vector<Task> tasks;
          for (int i = 0; i < 90; ++i) {
            tasks.push_back(
                {.release = static_cast<double>(rng.uniform_int(0, 20)),
                 .proc = 1.0,
                 .eligible =
                     blocks[static_cast<std::size_t>(rng.uniform_int(0, m - 1))]});
          }
          const Instance inst(m, std::move(tasks));
          EftDispatcher eft(TieBreakKind::kMin);
          const auto sched = run_dispatcher(inst, eft);
          const double opt = unit_optimal_fmax(inst);
          if (sched.max_flow() / opt > worst) {
            worst = sched.max_flow() / opt;
            worst_alg = sched.max_flow();
            worst_opt = opt;
          }
        }
        return Row{"disjoint, |Mi|=3", "EFT (upper bound!)", "Cor. 1",
                   TextTable::num(3.0 - 2.0 / k, 3) + " (max)",
                   TextTable::num(worst, 3), TextTable::num(worst_alg, 3),
                   TextTable::num(worst_opt, 3)};
      },
      // Theorem 7: interval |Mi| = k vs any online algorithm, bound 2.
      [] {
        EftDispatcher eft(TieBreakKind::kMin);
        return adversary_row("interval, |Mi|=2", "EFT-Min (online)", "Th. 7",
                             run_th7_interval(eft, 1000.0));
      },
      // Theorems 8/9/10: interval |Mi| = k, EFT with Min / Rand / any
      // tie-break, bound m - k + 1.
      [] {
        EftDispatcher min_d(TieBreakKind::kMin);
        return adversary_row("interval, |Mi|=3", "EFT-Min", "Th. 8",
                             run_th8(min_d, 10, 3));
      },
      [] {
        EftDispatcher rand_d(TieBreakKind::kRand, 2024);
        return adversary_row("interval, |Mi|=3", "EFT-Rand", "Th. 9",
                             run_th8(rand_d, 10, 3));
      },
      [] {
        EftDispatcher max_d(TieBreakKind::kMax);
        return adversary_row("interval, |Mi|=3", "EFT-Max (padded)", "Th. 10",
                             run_th10_smalltask(max_d, 10, 3));
      },
  };

  const auto rendered = runner.map<Row>(
      static_cast<int>(rows.size()),
      [&rows](int i) { return rows[static_cast<std::size_t>(i)](); });
  for (const auto& row : rendered) table.add_row(Row(row));

  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Expectation: measured >= guaranteed on lower-bound rows (Th. 3, 4, 5,\n"
      "7, 8, 9, 10; floor effects aside), and measured <= 3 - 2/k on the\n"
      "Corollary 1 upper-bound row.\n");
  return 0;
}

// A usage error (unknown option, stray argument, unwritable --trace-dir)
// is reported on stderr with exit status 2, like the other tools.
int main(int argc, char** argv) {
  try {
    return bench_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_table2_bounds: %s\n", e.what());
    return 2;
  }
}
