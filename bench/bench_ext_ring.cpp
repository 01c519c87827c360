// Extension: consistent hashing vs the paper's idealized placement.
//
// The paper's model gives every machine exactly 1/m of the key space; real
// Dynamo-style rings only approximate that, with an error controlled by the
// number of virtual nodes. This bench measures, per vnode count:
//   * ownership imbalance (max/mean and stddev of primary ownership);
//   * the LP max load induced by ring ownership alone (uniform key
//     popularity!) for the k=3 preference-list replication;
//   * simulated EFT-Min Fmax at fixed offered load.
// Placement imbalance alone — no popularity skew anywhere — already costs
// sustainable capacity at low vnode counts.
#include <cstdio>
#include <vector>

#include "kvstore/ring.hpp"
#include "lp/maxload.hpp"
#include "sched/engine.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

using namespace flowsched;

namespace {

constexpr int kM = 15;
constexpr int kK = 3;

}  // namespace

int main(int argc, char** argv) {
  const int requests = argc > 1 ? std::atoi(argv[1]) : 8000;
  const int seeds = 5;

  std::printf("== Extension: virtual nodes vs placement imbalance (m=%d, k=%d) ==\n\n",
              kM, kK);
  TextTable table({"vnodes", "max/mean ownership", "ownership stddev",
                   "LP max load %", "sim Fmax @ 50%"});

  for (int vnodes : {1, 2, 4, 8, 16, 64, 256}) {
    std::vector<double> ratios;
    std::vector<double> stds;
    std::vector<double> lp_loads;
    std::vector<double> fmaxes;
    for (int seed = 0; seed < seeds; ++seed) {
      const HashRing ring(kM, vnodes, 1000 + seed);
      const auto own = ring.ownership();
      double peak = 0;
      for (double o : own) peak = std::max(peak, o);
      ratios.push_back(peak * kM);
      stds.push_back(stddev(own));

      // Replica sets induced by the preference list: owner j serves keys of
      // every arc whose primary is j. For the LP we approximate the
      // per-owner replica set by sampling keys (the list varies by arc).
      // Conservative, faithful alternative: treat each sampled key as its
      // own "owner" with its own replica set.
      const int sample_keys = 600;
      std::vector<double> popularity;
      std::vector<ProcSet> sets;
      popularity.reserve(sample_keys);
      sets.reserve(sample_keys);
      for (std::uint64_t key = 0; key < static_cast<std::uint64_t>(sample_keys); ++key) {
        popularity.push_back(1.0 / sample_keys);
        sets.push_back(ring.replicas_of_key(key, kK));
      }
      lp_loads.push_back(100.0 * max_load_lp(popularity, sets).lambda / kM);

      // Simulation: uniform key popularity over the sampled keys.
      std::vector<Task> tasks;
      tasks.reserve(static_cast<std::size_t>(requests));
      Rng rng(77 + seed);
      double t = 0;
      const double lambda = 0.5 * kM;
      for (int i = 0; i < requests; ++i) {
        t += rng.exponential(lambda);
        const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, sample_keys - 1));
        tasks.push_back(Task{.release = t,
                             .proc = 1.0,
                             .eligible = ring.replicas_of_key(key, kK)});
      }
      const Instance inst(kM, std::move(tasks));
      EftDispatcher eft(TieBreakKind::kMin);
      fmaxes.push_back(run_dispatcher(inst, eft).max_flow());
    }
    table.add_row({std::to_string(vnodes), TextTable::num(median(ratios), 2),
                   TextTable::num(median(stds), 4),
                   TextTable::num(median(lp_loads), 1),
                   TextTable::num(median(fmaxes), 1)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading: with 1 vnode the hottest machine primarily owns ~3x its fair\n"
      "share, and even with uniform key popularity the LP threshold drops\n"
      "below 100%%. Two effects then compound in the ring's favor: vnodes\n"
      "equalize primary ownership, and k=3 preference-list replication\n"
      "absorbs what imbalance remains — by a handful of vnodes the paper's\n"
      "idealized equal-ownership model is an accurate abstraction.\n");
  return 0;
}
