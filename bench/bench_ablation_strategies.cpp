// Ablation: replication strategy design space (the paper's "future
// directions" asks for a strategy with good average AND worst-case
// behaviour).
//
// Candidates: Disjoint blocks (Cor. 1 guarantee, weak load absorption),
// Overlapping ring (best-in-paper load absorption, m-k+1 worst case), and
// Spread (replicas spaced m/k apart — an exploration beyond the paper).
// For each we report (a) the LP max-load medians across popularity skews
// and (b) simulated EFT-Min Fmax at fixed offered load.
#include <cstdio>
#include <vector>

#include "lp/maxload.hpp"
#include "sched/engine.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

using namespace flowsched;

namespace {

constexpr int kM = 15;
constexpr int kK = 3;

double median_lp_load(ReplicationStrategy strategy, PopularityCase pop_case,
                      double s, int perms) {
  std::vector<double> loads;
  Rng rng(424242);
  for (int p = 0; p < perms; ++p) {
    const auto pop = make_popularity(pop_case, kM, s, rng);
    loads.push_back(100.0 * max_load_lp(pop, replica_sets(strategy, kK, kM)).lambda / kM);
  }
  return median(loads);
}

double median_sim_fmax(ReplicationStrategy strategy, double s, double load,
                       int reps) {
  std::vector<double> fmaxes;
  for (int rep = 0; rep < reps; ++rep) {
    Rng rng(777 + rep);
    const auto pop = make_popularity(PopularityCase::kShuffled, kM, s, rng);
    KvWorkloadConfig config;
    config.m = kM;
    config.n = 8000;
    config.lambda = load * kM;
    config.strategy = strategy;
    config.k = kK;
    const auto inst = generate_kv_instance(config, pop, rng);
    EftDispatcher eft(TieBreakKind::kMin);
    fmaxes.push_back(run_dispatcher(inst, eft).max_flow());
  }
  return median(fmaxes);
}

}  // namespace

int main(int argc, char** argv) {
  const int perms = argc > 1 ? std::atoi(argv[1]) : 50;
  const int reps = argc > 2 ? std::atoi(argv[2]) : 7;
  const std::vector<ReplicationStrategy> strategies{
      ReplicationStrategy::kDisjoint, ReplicationStrategy::kOverlapping,
      ReplicationStrategy::kSpread};

  std::printf("== Ablation: replication strategies (m=%d, k=%d) ==\n\n", kM, kK);

  for (auto pop_case : {PopularityCase::kShuffled, PopularityCase::kWorstCase}) {
    std::printf("--- (a) LP median max-load %%, %s case (%d permutations) ---\n",
                to_string(pop_case).c_str(), perms);
    TextTable table({"s", "Disjoint", "Overlapping", "Spread"});
    for (double s : {0.0, 0.5, 1.0, 1.5, 2.0, 3.0}) {
      std::vector<std::string> row{TextTable::num(s, 1)};
      for (auto strategy : strategies) {
        row.push_back(
            TextTable::num(median_lp_load(strategy, pop_case, s, perms), 1));
      }
      table.add_row(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());
  }

  std::printf("--- (b) simulated EFT-Min median Fmax at 45%% load ---\n");
  {
    TextTable table({"s", "Disjoint", "Overlapping", "Spread"});
    for (double s : {0.0, 0.5, 1.0, 1.5}) {
      std::vector<std::string> row{TextTable::num(s, 1)};
      for (auto strategy : strategies) {
        row.push_back(TextTable::num(median_sim_fmax(strategy, s, 0.45, reps), 1));
      }
      table.add_row(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());
  }

  std::printf(
      "Reading: under Shuffled bias, Spread tracks Overlapping (a random\n"
      "permutation already decorrelates hot machines, so scattering replicas\n"
      "adds nothing). Under the Worst-case bias — the hottest machines\n"
      "adjacent — Spread's distant replicas absorb markedly more load than\n"
      "the ring, whose hot-machine replica sets all point into the same hot\n"
      "neighborhood. Disjoint trails in both. A cautionary negative result\n"
      "found while building this bench: with stride exactly m/k the spread\n"
      "sets collapse into a disjoint partition (Figure 1's reduction) and\n"
      "all benefit vanishes — hence the stride bump in the construction.\n");
  return 0;
}
