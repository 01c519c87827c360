// Figure 10: theoretical maximum cluster load from LP (15).
//
// (a) median max-load (% of m) over `--permutations` random popularity
//     permutations (Shuffled case), for s in [0, 5] step 0.25 and a grid
//     of replication degrees k, for both replication strategies;
// (b) the ratio overlapping/disjoint of those medians.
//
// Defaults reproduce the paper (m = 15, every k in [1, m], 100
// permutations). `--m` scales the analysis up: past m = 16 the k grid
// switches to powers of two (plus m itself), since the full k sweep grows
// quadratically while the paper's claims are about the k-trend, not every
// integer k.
//
// Every cell is scored in closed form: the overlapping ring and the
// disjoint blocks are arc layouts, so max_load_windows() gives LP (15)'s
// optimum in O(m^2) whatever k is (docs/lp.md). The spot-check lines at
// the end compare it with the general max-flow Hall oracle and, at
// m <= 64, the dense simplex tableau on a few ring cells.
//
// Determinism: jobs, one per k, fan out on the experiment runner
// (--threads N). Permutation p is regenerated inside each job from
// replicate_seed(experiment, p, 0) — the permutation depends only on p,
// not on s or k, so every cell of the grid and both strategies see the
// *same* permutations (the paper's paired protocol, extended along s).
// Medians are taken per job, so the output is byte-identical at any thread
// count (timing goes to stderr, which the determinism diff excludes).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "lp/maxload.hpp"
#include "runner/experiment.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/popularity.hpp"
#include "workload/replication.hpp"

using namespace flowsched;

namespace {

/// All k in [1, m] for small m (the paper's grid); powers of two plus m
/// itself beyond that.
std::vector<int> k_grid(int m) {
  std::vector<int> ks;
  if (m <= 16) {
    for (int k = 1; k <= m; ++k) ks.push_back(k);
  } else {
    for (int k = 1; k < m; k *= 2) ks.push_back(k);
    ks.push_back(m);
  }
  return ks;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const int m = args.integer("m", 15);
  const int permutations = args.integer("permutations", 100);
  ExperimentRunner runner(args.integer("threads", 0));
  args.reject_unknown();
  if (m < 1) throw std::invalid_argument("--m must be positive");
  if (permutations < 1) {
    throw std::invalid_argument("--permutations must be positive");
  }
  const std::uint64_t exp = experiment_id("fig10_maxload");

  std::vector<double> s_values;
  for (int i = 0; i <= 20; ++i) s_values.push_back(0.25 * i);
  const std::vector<int> k_values = k_grid(m);
  const std::size_t n_s = s_values.size();

  std::vector<std::string> row_labels;
  for (double s : s_values) row_labels.push_back(TextTable::num(s, 2));
  std::vector<std::string> col_labels;
  for (int k : k_values) col_labels.push_back(std::to_string(k));

  HeatGrid over(row_labels, col_labels);
  HeatGrid disj(row_labels, col_labels);
  HeatGrid ratio(row_labels, col_labels);

  // One job per k: it scores permutations x the s ladder x both strategies
  // with every machine up. Regenerating each permutation from
  // replicate_seed(exp, p, 0) keeps the protocol paired across s, k, and
  // strategies.
  struct Cell {
    double over;
    double disj;
  };
  const auto start_time = std::chrono::steady_clock::now();
  const auto columns = runner.map<std::vector<Cell>>(
      static_cast<int>(k_values.size()), [&](int job) {
        const int k = k_values[static_cast<std::size_t>(job)];
        const std::vector<std::uint8_t> all_up(static_cast<std::size_t>(m), 1);
        const auto max_load = [&](const std::vector<double>& pop,
                                  ReplicationStrategy strategy) {
          return 100.0 * max_load_windows(pop, strategy, k, all_up).lambda / m;
        };
        std::vector<std::vector<double>> over_loads(n_s);
        std::vector<std::vector<double>> disj_loads(n_s);
        for (int p = 0; p < permutations; ++p) {
          for (std::size_t si = 0; si < n_s; ++si) {
            // Re-seeding with the same p each rung reproduces the same
            // machine permutation at every s (the shuffle draws do not
            // depend on the exponent).
            Rng rng(replicate_seed(exp, static_cast<std::uint64_t>(p), 0));
            const auto pop = make_popularity(PopularityCase::kShuffled, m,
                                             s_values[si], rng);
            over_loads[si].push_back(
                max_load(pop, ReplicationStrategy::kOverlapping));
            disj_loads[si].push_back(
                max_load(pop, ReplicationStrategy::kDisjoint));
          }
        }
        std::vector<Cell> column;
        column.reserve(n_s);
        for (std::size_t si = 0; si < n_s; ++si) {
          column.push_back(Cell{median(over_loads[si]), median(disj_loads[si])});
        }
        return column;
      });
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();

  for (std::size_t ki = 0; ki < k_values.size(); ++ki) {
    for (std::size_t si = 0; si < n_s; ++si) {
      const Cell& cell = columns[ki][si];
      over.set(si, ki, cell.over);
      disj.set(si, ki, cell.disj);
      ratio.set(si, ki, cell.over / cell.disj);
    }
  }

  std::fprintf(stderr, "[runner] %d threads\n", runner.threads());
  std::fprintf(stderr,
               "[fig10] m=%d: %zu cells x %d permutations in %.2fs\n", m,
               n_s * k_values.size(), permutations, sweep_seconds);
  std::printf("== Figure 10a: median max-load (%%), m=%d, %d permutations ==\n\n",
              m, permutations);
  std::printf("--- Overlapping ---\n%s\n", over.render("s\\k", 1).c_str());
  std::printf("%s\n", over.render_shades(0.0, 100.0).c_str());
  std::printf("--- Disjoint ---\n%s\n", disj.render("s\\k", 1).c_str());
  std::printf("%s\n", disj.render_shades(0.0, 100.0).c_str());

  std::printf("== Figure 10b: ratio overlapping / disjoint ==\n\n%s\n",
              ratio.render("s\\k", 2).c_str());
  std::printf("%s\n", ratio.render_shades(1.0, 1.5).c_str());

  // Headline numbers the paper quotes.
  double max_ratio = 0;
  double at_s = 0;
  int at_k = 0;
  for (std::size_t si = 0; si < n_s; ++si) {
    for (std::size_t ki = 0; ki < k_values.size(); ++ki) {
      if (ratio.at(si, ki) > max_ratio) {
        max_ratio = ratio.at(si, ki);
        at_s = s_values[si];
        at_k = k_values[ki];
      }
    }
  }
  std::printf("Max gain of overlapping over disjoint: %.2fx at s=%.2f, k=%d\n",
              max_ratio, at_s, at_k);
  if (m == 15) {
    std::printf("Gain at the paper's headline cell (s=1.25, k=6): %.2fx\n",
                ratio.at(5, 5));
    std::printf(
        "(paper: ~1.5x there, and a color scale capped at 1.5, so larger gains\n"
        "at extreme skew s saturate their heatmap)\n\n");
  }

  // Spot-check the closed form against the general max-flow Hall oracle
  // and (at small m, where it is affordable) the dense tableau oracle.
  Rng check_rng(5);
  const std::vector<std::uint8_t> all_up(static_cast<std::size_t>(m), 1);
  for (double s : {0.5, 1.25, 3.0}) {
    const auto pop = make_popularity(PopularityCase::kShuffled, m, s, check_rng);
    for (int k : {k_values[k_values.size() / 3], k_values[k_values.size() / 2]}) {
      const auto sets = replica_sets(ReplicationStrategy::kOverlapping, k, m);
      const double windows =
          max_load_windows(pop, ReplicationStrategy::kOverlapping, k, all_up)
              .lambda;
      const double hall = max_load_lp(pop, sets).lambda;
      if (m <= 64) {
        const double oracle = max_load_lp_tableau(pop, sets).lambda;
        std::printf(
            "spot-check s=%.2f k=%d: windows=%.6f hall=%.6f tableau=%.6f "
            "(max diff %.2e)\n",
            s, k, windows, hall, oracle,
            std::max(std::abs(windows - hall), std::abs(windows - oracle)));
      } else {
        std::printf(
            "spot-check s=%.2f k=%d: windows=%.6f hall=%.6f (diff %.2e)\n", s,
            k, windows, hall, std::abs(windows - hall));
      }
    }
  }
  return 0;
}
