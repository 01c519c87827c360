// Replication planner: a capacity-planning tool built on LP (15).
//
// Given a cluster size, a popularity skew estimate, and a target load, find
// the smallest replication factor k that sustains the target under each
// replication strategy — the operational question behind Figure 10.
//
//   $ ./replication_planner [m] [s] [target_load_percent]
#include <cstdio>
#include <vector>

#include "lp/maxload.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/popularity.hpp"
#include "workload/replication.hpp"

using namespace flowsched;

namespace {

double median_load_percent(int m, double s, int k, ReplicationStrategy strategy,
                           int permutations) {
  std::vector<double> loads;
  Rng rng(31337);
  for (int p = 0; p < permutations; ++p) {
    const auto pop = make_popularity(PopularityCase::kShuffled, m, s, rng);
    loads.push_back(100.0 * max_load_lp(pop, replica_sets(strategy, k, m)).lambda / m);
  }
  return median(loads);
}

}  // namespace

int main(int argc, char** argv) {
  const int m = argc > 1 ? std::atoi(argv[1]) : 15;
  const double s = argc > 2 ? std::atof(argv[2]) : 1.0;
  const double target = argc > 3 ? std::atof(argv[3]) : 80.0;
  const int permutations = 50;

  std::printf("== Replication planner: m=%d, Zipf s=%.2f, target %.0f%% ==\n\n",
              m, s, target);

  TextTable table({"k", "overlapping max-load %", "disjoint max-load %"});
  int best_over = -1;
  int best_disj = -1;
  for (int k = 1; k <= m; ++k) {
    const double over =
        median_load_percent(m, s, k, ReplicationStrategy::kOverlapping,
                            permutations);
    const double disj = median_load_percent(
        m, s, k, ReplicationStrategy::kDisjoint, permutations);
    if (best_over < 0 && over >= target) best_over = k;
    if (best_disj < 0 && disj >= target) best_disj = k;
    table.add_row({std::to_string(k), TextTable::num(over, 1),
                   TextTable::num(disj, 1)});
  }
  std::printf("%s\n", table.render().c_str());

  auto describe = [&](const char* name, int k) {
    if (k < 0) {
      std::printf("%s: target unreachable even at k=m.\n", name);
    } else {
      std::printf("%s: replicate each key on %d machine(s) (storage cost %dx).\n",
                  name, k, k);
    }
  };
  describe("Overlapping (ring)", best_over);
  describe("Disjoint blocks   ", best_disj);
  std::printf(
      "\nNote: overlapping typically reaches the target with a smaller k —\n"
      "the paper's 'up to 50%% higher load' observation — but gives up the\n"
      "(3 - 2/k) worst-case guarantee EFT enjoys on disjoint sets.\n");
  return 0;
}
