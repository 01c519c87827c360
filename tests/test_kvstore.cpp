#include "kvstore/cluster_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "kvstore/store.hpp"
#include "obs/observer.hpp"
#include "util/stats.hpp"

namespace flowsched {
namespace {

StoreConfig small_store() {
  StoreConfig c;
  c.m = 6;
  c.keys = 60;
  c.zipf_s = 1.0;
  c.strategy = ReplicationStrategy::kOverlapping;
  c.k = 3;
  return c;
}

TEST(KeyValueStore, OwnersAreRoundRobin) {
  Rng rng(1);
  const KeyValueStore store(small_store(), rng);
  EXPECT_EQ(store.owner(0), 0);
  EXPECT_EQ(store.owner(7), 1);
  EXPECT_EQ(store.owner(59), 5);
}

TEST(KeyValueStore, ReplicasFollowStrategy) {
  Rng rng(2);
  const KeyValueStore store(small_store(), rng);
  for (int key = 0; key < 60; ++key) {
    const auto expected =
        replica_set(ReplicationStrategy::kOverlapping, store.owner(key), 3, 6);
    EXPECT_EQ(store.replicas_of_key(key), expected);
  }
}

TEST(KeyValueStore, MachinePopularitySumsToOne) {
  Rng rng(3);
  const KeyValueStore store(small_store(), rng);
  const auto& pop = store.machine_popularity();
  EXPECT_EQ(pop.size(), 6u);
  EXPECT_NEAR(std::accumulate(pop.begin(), pop.end(), 0.0), 1.0, 1e-12);
}

TEST(KeyValueStore, ShuffleChangesPlacementNotMass) {
  auto config = small_store();
  config.shuffle_key_ranks = false;
  Rng rng(4);
  const KeyValueStore fixed(config, rng);
  // Without shuffling, key 0 is the most popular and lives on machine 0.
  const auto& pop = fixed.machine_popularity();
  EXPECT_GT(pop[0], pop[5]);
}

TEST(KeyValueStore, SampleKeyInRange) {
  Rng rng(5);
  const KeyValueStore store(small_store(), rng);
  for (int i = 0; i < 1000; ++i) {
    const int key = store.sample_key(rng);
    EXPECT_GE(key, 0);
    EXPECT_LT(key, 60);
  }
}

// Owners are computed as key % m; the range check is what still rejects a
// key outside [0, keys), including keys that would map to a valid owner.
TEST(KeyValueStore, KeyOutsideRangeThrows) {
  Rng rng(7);
  const KeyValueStore store(small_store(), rng);
  for (int key : {-1, -6, 60, 61, 66}) {
    EXPECT_THROW(store.owner(key), std::out_of_range) << key;
    EXPECT_THROW(store.replicas_of_key(key), std::out_of_range) << key;
  }
  EXPECT_NO_THROW(store.replicas_of_key(59));
}

TEST(KeyValueStore, RejectsBadConfig) {
  Rng rng(6);
  StoreConfig bad = small_store();
  bad.m = 0;
  EXPECT_THROW(KeyValueStore(bad, rng), std::invalid_argument);
  bad = small_store();
  bad.keys = 0;
  EXPECT_THROW(KeyValueStore(bad, rng), std::invalid_argument);
}

TEST(ClusterSim, LowLoadHasUnitLatency) {
  Rng rng(7);
  const KeyValueStore store(small_store(), rng);
  SimConfig sim;
  sim.lambda = 0.5;  // ~8% load: queues essentially empty
  sim.requests = 2000;
  EftDispatcher eft(TieBreakKind::kMin);
  const auto report = simulate_cluster(store, sim, eft, rng);
  EXPECT_EQ(report.requests, 2000);
  EXPECT_NEAR(report.p50, 1.0, 0.1);
  EXPECT_GE(report.max_latency, 1.0);
}

TEST(ClusterSim, LatencyGrowsWithLoad) {
  Rng rng(8);
  const KeyValueStore store(small_store(), rng);
  EftDispatcher eft(TieBreakKind::kMin);
  SimConfig low;
  low.lambda = 1.0;
  low.requests = 4000;
  SimConfig high;
  high.lambda = 5.4;  // 90% of m = 6
  high.requests = 4000;
  Rng rng_low(9);
  Rng rng_high(9);
  const auto r_low = simulate_cluster(store, low, eft, rng_low);
  const auto r_high = simulate_cluster(store, high, eft, rng_high);
  EXPECT_GT(r_high.mean_latency, r_low.mean_latency);
  EXPECT_GT(r_high.p99, r_low.p99);
}

TEST(ClusterSim, PercentilesAreOrdered) {
  Rng rng(10);
  const KeyValueStore store(small_store(), rng);
  SimConfig sim;
  sim.lambda = 4.0;
  sim.requests = 3000;
  EftDispatcher eft(TieBreakKind::kMin);
  const auto report = simulate_cluster(store, sim, eft, rng);
  EXPECT_LE(report.p50, report.p90);
  EXPECT_LE(report.p90, report.p99);
  EXPECT_LE(report.p99, report.max_latency);
  EXPECT_GE(report.mean_latency, 1.0);  // service time alone is 1
}

TEST(ClusterSim, UtilizationBoundedByOne) {
  Rng rng(11);
  const KeyValueStore store(small_store(), rng);
  SimConfig sim;
  sim.lambda = 5.0;
  sim.requests = 3000;
  EftDispatcher eft(TieBreakKind::kMin);
  const auto report = simulate_cluster(store, sim, eft, rng);
  ASSERT_EQ(report.utilization.size(), 6u);
  for (double u : report.utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
}

TEST(ClusterSim, ServiceDistributionsProduceValidRuns) {
  Rng rng(12);
  const KeyValueStore store(small_store(), rng);
  EftDispatcher eft(TieBreakKind::kMin);
  for (auto dist : {ServiceDist::kConstant, ServiceDist::kExponential,
                    ServiceDist::kUniform}) {
    SimConfig sim;
    sim.lambda = 2.0;
    sim.requests = 1000;
    sim.dist = dist;
    Rng run_rng(13);
    const auto report = simulate_cluster(store, sim, eft, run_rng);
    EXPECT_EQ(report.requests, 1000);
    EXPECT_GT(report.mean_latency, 0.0);
  }
}

TEST(ClusterSim, ReportStringMentionsKeyFigures) {
  Rng rng(14);
  const KeyValueStore store(small_store(), rng);
  SimConfig sim;
  sim.lambda = 2.0;
  sim.requests = 500;
  EftDispatcher eft(TieBreakKind::kMin);
  const auto report = simulate_cluster(store, sim, eft, rng);
  const auto text = report.str();
  EXPECT_NE(text.find("p99"), std::string::npos);
  EXPECT_NE(text.find("requests=500"), std::string::npos);
}

TEST(ClusterSim, RejectsNonPositiveLambda) {
  Rng rng(15);
  const KeyValueStore store(small_store(), rng);
  SimConfig sim;
  sim.lambda = 0.0;
  EftDispatcher eft(TieBreakKind::kMin);
  EXPECT_THROW(simulate_cluster(store, sim, eft, rng), std::invalid_argument);
}

TEST(ClusterSim, RejectsNegativeRequestCount) {
  Rng rng(16);
  const KeyValueStore store(small_store(), rng);
  SimConfig sim;
  sim.requests = -1;
  EftDispatcher eft(TieBreakKind::kMin);
  EXPECT_THROW(simulate_cluster(store, sim, eft, rng), std::invalid_argument);
}

// Records each request's flow, in request order, from the engine's
// completion events.
class FlowRecorder final : public SchedObserver {
 public:
  void on_run_begin(const RunInfo&) override {}
  void on_event(const ObsEvent& e) override {
    if (e.kind != ObsEventKind::kTaskCompleted) return;
    const auto i = static_cast<std::size_t>(e.task);
    if (flows.size() <= i) flows.resize(i + 1);
    flows[i] = e.time - e.release;
  }
  void on_run_end(double) override {}
  std::vector<double> flows;
};

// The exact regime selects its order statistics instead of sorting: the
// report equals sort + quantile_sorted bit for bit, at tiny n and in a
// constant-service run full of ties.
TEST(ClusterSim, ExactQuantilesEqualSortedReference) {
  for (ServiceDist dist : {ServiceDist::kConstant, ServiceDist::kExponential}) {
    for (int n : {1, 2, 3, 1000}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " dist=" +
                   std::to_string(static_cast<int>(dist)));
      Rng rng(23);
      const KeyValueStore store(small_store(), rng);
      SimConfig sim;
      sim.lambda = 2.0;
      sim.requests = n;
      sim.dist = dist;
      EftDispatcher eft(TieBreakKind::kMin);
      FlowRecorder recorder;
      const auto report = simulate_cluster(store, sim, eft, rng, &recorder);
      std::vector<double> flows = recorder.flows;
      ASSERT_EQ(flows.size(), static_cast<std::size_t>(n));
      EXPECT_EQ(report.mean_latency, mean(flows));
      std::sort(flows.begin(), flows.end());
      EXPECT_EQ(report.p50, quantile_sorted(flows, 0.50));
      EXPECT_EQ(report.p90, quantile_sorted(flows, 0.90));
      EXPECT_EQ(report.p99, quantile_sorted(flows, 0.99));
      EXPECT_EQ(report.max_latency, quantile_sorted(flows, 1.0));
      if (dist == ServiceDist::kConstant && n == 1000) {
        // Ties: most requests are served at once, with flow exactly 1.
        EXPECT_GT(std::count(flows.begin(), flows.end(), 1.0), n / 2);
      }
    }
  }
}

// Pins the whole fault-mode report of a weighted run in which crashes,
// backoff retries, drops and parks all occur: the fault fields, the
// weighted aggregates and per-server utilization, bit for bit.
TEST(ClusterSim, FaultModeWeightedReportIsPinned) {
  Rng rng(17);
  const KeyValueStore store(small_store(), rng);
  FaultModelConfig model;
  model.mean_up = 6.0;
  model.mean_down = 3.0;
  model.horizon = 200.0;
  Rng plan_rng(18);
  const FaultPlan plan = FaultPlan::random(6, model, plan_rng);
  RecoveryPolicy recovery;
  recovery.kind = RecoveryKind::kBackoff;
  recovery.max_retries = 2;
  SimConfig sim;
  sim.lambda = 4.0;
  sim.requests = 800;
  sim.dist = ServiceDist::kExponential;
  sim.heavy_keys = 6;
  sim.heavy_weight = 4.0;
  EftDispatcher eft(TieBreakKind::kMin);
  const auto report =
      simulate_cluster(store, sim, eft, rng, nullptr, &plan, recovery);
  EXPECT_EQ(report.str(),
            "requests=800 mean=18.1884 p50=17.587 p90=32.1935 p99=58.36 "
            "max(Fmax)=82.0692 retried=184 dropped=8 parked=58 "
            "wasted=127.045 downtime=0.308336 fmaxw=206.972 totalw=16134");
  const std::vector<double> utilization = {
      0.65775836463916004, 0.72229870576016486, 0.63164459293746644,
      0.66016575991375115, 0.57191261060470189, 0.71553439289205423};
  EXPECT_EQ(report.utilization, utilization);
}

}  // namespace
}  // namespace flowsched
