// Workload patterns: how the access distribution shape (YCSB-style
// uniform / zipfian / latest / hotspot) interacts with replication and
// EFT scheduling in a key-value store.
//
// For each pattern we print the induced machine popularity, the LP maximum
// sustainable load for both replication strategies, and simulated latency
// percentiles at a fixed offered load — connecting the paper's analysis to
// the workload shapes practitioners actually benchmark with.
//
//   $ ./workload_patterns [requests]
#include <cstdio>
#include <vector>

#include "kvstore/cluster_sim.hpp"
#include "lp/maxload.hpp"
#include "util/table.hpp"
#include "workload/access_patterns.hpp"

using namespace flowsched;

int main(int argc, char** argv) {
  const int requests = argc > 1 ? std::atoi(argv[1]) : 15000;
  const int m = 12;
  const int k = 3;
  const int keys = 1200;

  struct Named {
    const char* name;
    AccessPattern pattern;
  };
  // A hotspot whose hot keys all hash to the same server (keys = 0 mod m):
  // the placement-correlated worst case round-robin cannot dilute.
  std::vector<double> correlated(static_cast<std::size_t>(keys), 0.0);
  for (int key = 0; key < keys; ++key) {
    correlated[static_cast<std::size_t>(key)] =
        key % m == 0 ? 0.8 / (keys / m) : 0.2 / (keys - keys / m);
  }

  const std::vector<Named> patterns{
      {"uniform", AccessPattern::uniform(keys)},
      {"zipfian(0.99)", AccessPattern::zipfian(keys, 0.99)},
      {"latest(1.0)", AccessPattern::latest(keys, 1.0)},
      {"hotspot(5%/80%)", AccessPattern::hotspot(keys, 0.05, 0.8)},
      {"correlated hotspot", AccessPattern::from_weights(correlated)},
  };

  TextTable table({"pattern", "hottest server %", "LP max load Over %",
                   "LP max load Disj %", "p50", "p99", "max"});
  for (const auto& [name, pattern] : patterns) {
    const auto machine_pop = pattern.machine_popularity(m);
    double peak = 0;
    for (double p : machine_pop) peak = std::max(peak, p);

    const double lp_over =
        100.0 *
        max_load_lp(machine_pop,
                    replica_sets(ReplicationStrategy::kOverlapping, k, m))
            .lambda /
        m;
    const double lp_disj =
        100.0 *
        max_load_lp(machine_pop,
                    replica_sets(ReplicationStrategy::kDisjoint, k, m))
            .lambda /
        m;

    StoreConfig sc;
    sc.m = m;
    sc.keys = keys;
    sc.strategy = ReplicationStrategy::kOverlapping;
    sc.k = k;
    const KeyValueStore store(sc, std::vector<double>(pattern.weights()));
    SimConfig sim;
    sim.lambda = 0.55 * m;
    sim.requests = requests;
    EftDispatcher eft(TieBreakKind::kMin);
    Rng rng(2026);
    const auto report = simulate_cluster(store, sim, eft, rng);

    table.add_row({name, TextTable::num(100.0 * peak, 1),
                   TextTable::num(lp_over, 0), TextTable::num(lp_disj, 0),
                   TextTable::num(report.p50, 2), TextTable::num(report.p99, 2),
                   TextTable::num(report.max_latency, 2)});
  }
  std::printf("== Access patterns on a %d-server store (k=%d, 55%%%% load, "
              "EFT-Min, overlapping) ==\n\n%s\n", m, k, table.render().c_str());
  std::printf(
      "Reading: with ~100 keys per server, per-key skew mostly averages out\n"
      "across owners — even an 80/20 hotspot looks uniform at machine level\n"
      "when its hot keys are spread by round-robin placement. What actually\n"
      "hurts is placement-CORRELATED hotness (all hot keys on one server):\n"
      "one server owns 80%% of the traffic, the disjoint LP threshold\n"
      "collapses, and only replication breadth keeps the tail in check.\n");
  return 0;
}
