// Extension: the analytical bound landscape overlaid on simulation
// (docs/bounds.md).
//
// Three views, all driven by src/bounds:
//
//  1. Landscape table — evaluate_grid() over (m, k, structure) for EFT-Min:
//     the tightest applicable lower/upper competitive-ratio bound per cell
//     with the binding theorem's name. Pure closed forms, no simulation.
//
//  2. Construction exactness — each Section-6 adversary is run once and its
//     realized Fmax is compared against the closed-form prediction
//     (theoremN_predicted_fmax) and the AdversaryResult::predicted_fmax the
//     construction itself reports. Where the proof is exact the three
//     values agree bitwise; a realized Fmax *below* the prediction is a
//     bound violation.
//
//  3. Overlay sweep — a (strategy x load) grid of random unit-task kvstore
//     workloads (m = 12, k = 3, Bernoulli arrivals on integer slots), each
//     replicate simulated with EFT-Min and checked against every applicable
//     analytical bound: the certified lower-bound chain
//     opt_lower_bound <= OPT_exact <= Fmax, the universal work ceiling
//     Fmax <= W + pmax, and on disjoint blocks the Theorem 6 / Corollary 1
//     ceiling Fmax <= (3 - 2/k) * OPT_exact. OPT_exact is the Hopcroft-Karp
//     unit-task optimum (offline/unit_optimal.hpp) — an algorithm, not a
//     simulation, so every overlay number is independently certified.
//
// The bench exits 1 if any bound is violated anywhere ("violations=0" is
// asserted by the bounds_smoke ctest) and follows the deterministic-runner
// contract: every replicate derives all randomness from
// replicate_seed(experiment, cell, rep), results are reduced in job order,
// and stdout is byte-identical at any --threads
// (bench_determinism_bounds ctest).
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "adversary/inclusive.hpp"
#include "adversary/interval2.hpp"
#include "adversary/ksize.hpp"
#include "adversary/nested.hpp"
#include "adversary/smalltask.hpp"
#include "adversary/th8_stream.hpp"
#include "bounds/bounds.hpp"
#include "model/instance.hpp"
#include "offline/lower_bounds.hpp"
#include "offline/unit_optimal.hpp"
#include "runner/experiment.hpp"
#include "sched/dispatchers.hpp"
#include "sched/engine.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/replication.hpp"

using namespace flowsched;

namespace {

constexpr int kM = 12;
constexpr int kK = 3;
// Metrics per replicate, in reduction order.
constexpr int kMetrics = 5;  // fmax, opt, certified lb, work ceiling, violations

// Unit-task kvstore workload on integer slots: every (slot, machine) pair
// spawns a request with probability `load`, owned by a uniform machine and
// eligible on its replica set. Integer releases + unit tasks keep the exact
// Hopcroft-Karp optimum applicable.
Instance random_workload(std::uint64_t seed, ReplicationStrategy strategy,
                         double load, int slots) {
  Rng rng(seed);
  const std::vector<ProcSet> sets = replica_sets(strategy, kK, kM);
  std::vector<Task> tasks;
  for (int t = 0; t < slots; ++t) {
    for (int j = 0; j < kM; ++j) {
      if (!rng.bernoulli(load)) continue;
      const auto owner = static_cast<std::size_t>(rng.uniform_int(0, kM - 1));
      tasks.push_back(Task{.release = static_cast<double>(t),
                           .proc = 1.0,
                           .eligible = sets[owner]});
    }
  }
  // Guarantee non-emptiness so every oracle below is well-defined.
  if (tasks.empty()) {
    tasks.push_back(Task{.release = 0.0, .proc = 1.0, .eligible = sets[0]});
  }
  return Instance(kM, std::move(tasks));
}

std::vector<double> one_replicate(std::uint64_t seed,
                                  ReplicationStrategy strategy, double load,
                                  int slots) {
  const Instance inst = random_workload(seed, strategy, load, slots);
  EftDispatcher eft(TieBreakKind::kMin, seed);
  const double fmax = run_dispatcher(inst, eft).max_flow();
  const double opt = unit_optimal_fmax(inst);
  const double certified = opt_lower_bound(inst);

  double work = 0.0;
  for (const Task& t : inst.tasks()) work += t.proc;
  const double ceiling = work + 1.0;  // W + pmax, unit tasks

  int violations = 0;
  // Certified chain: certified lower bound <= exact OPT <= simulated Fmax.
  if (certified > opt + 1e-9) ++violations;
  if (fmax < opt - 1e-9) ++violations;
  // Universal work ceiling (docs/bounds.md, [diff-bounds] (a)).
  if (fmax > ceiling + 1e-9) ++violations;
  // Theorem 6 / Corollary 1 on disjoint blocks, vs the exact optimum.
  if (strategy == ReplicationStrategy::kDisjoint) {
    const double cor1 =
        bounds::theorem6_disjoint_upper(kK, *rational_from_double(opt))
            .to_double();
    if (fmax > cor1 + 1e-9) ++violations;
  }
  return {fmax, opt, certified, ceiling, static_cast<double>(violations)};
}

// One adversary-exactness row: realized vs closed-form predicted Fmax. For
// a lower-bound construction the realized value must reach the prediction;
// "exact" additionally means bitwise equality (the proofs are exact for
// Th. 3/4/5/7/8; Th. 10's padding perturbs completions by multiples of the
// calibration delta, so it gets a tolerance of m^2 * delta).
struct ExactnessRow {
  std::string theorem;
  double predicted = 0.0;  // closed form (src/bounds)
  double reported = 0.0;   // AdversaryResult::predicted_fmax
  double realized = 0.0;   // schedule.max_flow()
  double tolerance = 0.0;
};

int render_exactness(const std::vector<ExactnessRow>& rows) {
  TextTable table({"construction", "closed form", "reported", "realized",
                   "status"});
  int violations = 0;
  for (const ExactnessRow& row : rows) {
    const bool consistent = row.predicted == row.reported;
    const bool exact = row.realized == row.predicted;
    const bool reached = row.realized >= row.predicted - row.tolerance;
    std::string status;
    if (!consistent || !reached) {
      status = "VIOLATED";
      ++violations;
    } else {
      status = exact ? "exact" : "reached";
    }
    table.add_row({row.theorem, TextTable::num(row.predicted),
                   TextTable::num(row.reported), TextTable::num(row.realized),
                   status});
  }
  std::printf("%s\n", table.render().c_str());
  return violations;
}

}  // namespace

int bench_main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const int reps = args.positive("reps", 5);
  const int slots = args.integer("slots", 30);
  ExperimentRunner runner(args.integer("threads", 0));
  args.reject_unknown();
  std::fprintf(stderr, "[runner] %d threads\n", runner.threads());

  int violations = 0;

  // --- 1. Closed-form landscape --------------------------------------------
  std::printf("== Bound landscape (EFT-Min, p = 1000; docs/bounds.md) ==\n\n");
  const bounds::BoundReport landscape = bounds::evaluate_grid(
      {8, 16, 64}, {2, 3, 4},
      {bounds::StructureClass::kUnrestricted, bounds::StructureClass::kInclusive,
       bounds::StructureClass::kNested, bounds::StructureClass::kKSize,
       bounds::StructureClass::kInterval, bounds::StructureClass::kDisjoint},
      bounds::AlgoClass::kEftMin, Rational(1000));
  std::printf("%s\n", landscape.render().c_str());

  // --- 2. Construction exactness -------------------------------------------
  std::printf("== Construction exactness: realized vs closed form ==\n\n");
  std::vector<ExactnessRow> rows;
  const Rational p(1000);
  {
    EftDispatcher eft(TieBreakKind::kMin, 0);
    const AdversaryResult r = run_th3_inclusive(eft, 16, 1000.0);
    rows.push_back({"Th. 3 (m=16)",
                    bounds::theorem3_predicted_fmax(16, p).to_double(),
                    r.predicted_fmax, r.achieved_fmax, 0.0});
  }
  {
    EftDispatcher eft(TieBreakKind::kMin, 0);
    const AdversaryResult r = run_th4_ksize(eft, 27, 3, 1000.0);
    rows.push_back({"Th. 4 (m=27, k=3)",
                    bounds::theorem4_predicted_fmax(27, 3, p).to_double(),
                    r.predicted_fmax, r.achieved_fmax, 0.0});
  }
  {
    EftDispatcher eft(TieBreakKind::kMin, 0);
    const AdversaryResult r = run_th5_nested(eft, 16);
    rows.push_back({"Th. 5 (m=16)", bounds::theorem5_predicted_fmax(16).to_double(),
                    r.predicted_fmax, r.achieved_fmax, 0.0});
  }
  {
    EftDispatcher eft(TieBreakKind::kMin, 0);
    const AdversaryResult r = run_th7_interval(eft, 1000.0);
    rows.push_back({"Th. 7 (p=1000)", bounds::theorem7_predicted_fmax(p).to_double(),
                    r.predicted_fmax, r.achieved_fmax, 0.0});
  }
  {
    EftDispatcher eft(TieBreakKind::kMin, 0);
    const AdversaryResult r = run_th8(eft, 10, 3);
    rows.push_back({"Th. 8 (m=10, k=3)",
                    bounds::theorem8_predicted_fmax(10, 3).to_double(),
                    r.predicted_fmax, r.achieved_fmax, 0.0});
  }
  {
    EftDispatcher eft(TieBreakKind::kMin, 0);
    const AdversaryResult r = run_th10_smalltask(eft, 10, 3);
    rows.push_back({"Th. 10 (m=10, k=3)",
                    bounds::theorem8_predicted_fmax(10, 3).to_double(),
                    r.predicted_fmax, r.achieved_fmax,
                    /*tolerance=*/10.0 * 10.0 * 0x1.0p-20});
  }
  violations += render_exactness(rows);

  // --- 3. Overlay sweep -----------------------------------------------------
  std::printf("== Overlay: simulated EFT-Min vs analytical bounds "
              "(m=%d, k=%d, unit tasks, %d slots, median of %d runs) ==\n\n",
              kM, kK, slots, reps);
  const std::vector<double> loads{0.4, 0.6, 0.8};
  const std::vector<ReplicationStrategy> strategies{
      ReplicationStrategy::kOverlapping, ReplicationStrategy::kDisjoint};
  const std::uint64_t exp = experiment_id("ext_bounds");

  TextTable table({"strategy", "load", "Fmax", "OPT", "cert-LB", "Cor.1 cap",
                   "worst-case", "violations"});
  for (const ReplicationStrategy strategy : strategies) {
    for (std::size_t li = 0; li < loads.size(); ++li) {
      const double load = loads[li];
      const std::uint64_t cid = cell_id(
          {static_cast<std::uint64_t>(strategy), static_cast<std::uint64_t>(li),
           static_cast<std::uint64_t>(slots)});
      const auto per_rep = runner.map<std::vector<double>>(reps, [&](int rep) {
        const std::uint64_t seed =
            replicate_seed(exp, cid, static_cast<std::uint64_t>(rep));
        return one_replicate(seed, strategy, load, slots);
      });
      const auto metric = [&](int which) {
        std::vector<double> v;
        v.reserve(per_rep.size());
        for (const auto& r : per_rep) {
          v.push_back(r[static_cast<std::size_t>(which)]);
        }
        return v;
      };
      int cell_violations = 0;
      for (const auto& r : per_rep) {
        cell_violations += static_cast<int>(r[kMetrics - 1]);
      }
      violations += cell_violations;
      const double med_opt = median(metric(1));
      // The Cor. 1 ceiling binds only on disjoint blocks; the overlapping
      // ring's upper cell is open — its worst case is the Th. 8/10 stream.
      const std::string cap =
          strategy == ReplicationStrategy::kDisjoint
              ? TextTable::num((3.0 - 2.0 / kK) * med_opt)
              : "-";
      table.add_row({std::string(strategy == ReplicationStrategy::kDisjoint
                                     ? "disjoint"
                                     : "overlapping"),
                     TextTable::num(load, 1), TextTable::num(median(metric(0))),
                     TextTable::num(med_opt), TextTable::num(median(metric(2))),
                     cap,
                     TextTable::num(
                         bounds::theorem8_ratio(kM, kK).to_double() * med_opt),
                     std::to_string(cell_violations)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading: Fmax always sits between the certified lower bound and every\n"
      "applicable analytical ceiling; on disjoint blocks Cor. 1 caps it at\n"
      "(3 - 2/k) * OPT, while the overlapping ring has no upper theorem —\n"
      "its worst-case column is the Th. 8/10 adversarial level (m - k + 1) *\n"
      "OPT, far above the average-case Fmax the sweep measures.\n\n");

  std::printf("bound-violations=%d\n", violations);
  return violations == 0 ? 0 : 1;
}

// A usage error (unknown option, stray argument, unwritable --trace-dir)
// is reported on stderr with exit status 2, like the other tools.
int main(int argc, char** argv) {
  try {
    return bench_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_ext_bounds: %s\n", e.what());
    return 2;
  }
}
