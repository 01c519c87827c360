// Key-value store tail-latency study: the motivating scenario of the paper.
//
// A 15-server cluster stores 1500 keys with Zipf(1.0) popularity, replicated
// with factor 3 on a Dynamo-style ring. We sweep the offered load and report
// p50/p99/max latency for several replica-selection policies, showing how
// EFT-style least-work dispatch tames the tail versus naive policies and how
// the replication structure (overlapping vs disjoint) shifts saturation.
//
//   $ ./kvstore_tail_latency [requests]
#include <cstdio>
#include <memory>
#include <vector>

#include "kvstore/cluster_sim.hpp"
#include "lp/maxload.hpp"
#include "util/table.hpp"

using namespace flowsched;

int main(int argc, char** argv) {
  const int requests = argc > 1 ? std::atoi(argv[1]) : 20000;
  StoreConfig sc;
  sc.m = 15;
  sc.keys = 1500;
  sc.zipf_s = 1.0;
  sc.k = 3;

  for (auto strategy :
       {ReplicationStrategy::kOverlapping, ReplicationStrategy::kDisjoint}) {
    sc.strategy = strategy;
    Rng store_rng(7);
    const KeyValueStore store(sc, store_rng);

    const double lp_load =
        100.0 *
        max_load_lp(store.machine_popularity(),
                    replica_sets(strategy, sc.k, sc.m))
            .lambda /
        sc.m;
    std::printf("=== %s replication (k=%d) — LP max load %.0f%% ===\n",
                to_string(strategy).c_str(), sc.k, lp_load);

    TextTable table({"load %", "policy", "p50", "p99", "max"});
    for (int load : {30, 50, 70}) {
      std::vector<std::unique_ptr<Dispatcher>> policies;
      policies.push_back(std::make_unique<EftDispatcher>(TieBreakKind::kMin));
      policies.push_back(std::make_unique<RandomEligibleDispatcher>(3));
      policies.push_back(std::make_unique<RoundRobinDispatcher>());
      policies.push_back(std::make_unique<JsqDispatcher>(TieBreakKind::kMin));
      for (auto& policy : policies) {
        SimConfig sim;
        sim.lambda = load / 100.0 * sc.m;
        sim.requests = requests;
        Rng rng(1000 + load);  // same arrival stream for every policy
        const auto report = simulate_cluster(store, sim, *policy, rng);
        table.add_row({std::to_string(load), policy->name(),
                       TextTable::num(report.p50, 2),
                       TextTable::num(report.p99, 2),
                       TextTable::num(report.max_latency, 2)});
      }
    }
    std::printf("%s\n", table.render().c_str());
  }
  std::printf(
      "Takeaway: EFT keeps p99 near the service time well past the loads\n"
      "where random/round-robin replica selection has already built deep\n"
      "queues, and overlapping replication sustains higher load than\n"
      "disjoint blocks under popularity skew.\n");
  return 0;
}
