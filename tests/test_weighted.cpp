// Weighted flow time (docs/scenarios.md): the weight column on Task, the
// shared weighted_flow_term recipe, the Rational-exact aggregates on
// Schedule / MetricsCollector (the [weighted-accounting] bitwise contract), the instance-format round trip, the weight generator,
// and the cluster sim's heavy-key weighted latency report across the batch,
// streaming, and sharded paths.
#include "model/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "check/gen.hpp"
#include "io/instance_io.hpp"
#include "kvstore/cluster_sim.hpp"
#include "model/instance.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "sched/dispatchers.hpp"
#include "sched/engine.hpp"
#include "sched/sharded/sharded.hpp"
#include "util/rational.hpp"
#include "util/rng.hpp"

namespace flowsched {
namespace {

Instance weighted_instance() {
  std::vector<Task> tasks = {
      {.release = 0.0, .proc = 2.0, .eligible = ProcSet({0, 1}), .weight = 1.5},
      {.release = 0.5, .proc = 1.0, .eligible = ProcSet({1, 2}),
       .weight = 0.25},
      {.release = 1.0, .proc = 1.5, .eligible = ProcSet()},  // w = 1 default
      {.release = 1.25, .proc = 0.5, .eligible = ProcSet({0}), .weight = 8.0},
      {.release = 2.0, .proc = 1.0, .eligible = ProcSet({1, 2}),
       .weight = 0.5},
  };
  return Instance(3, std::move(tasks));
}

// weighted_flow_term at unit weight is the identity bitwise — the reason
// unweighted and weighted aggregates collapse exactly at w = 1.
TEST(Weighted, FlowTermUnitIdentity) {
  for (double f : {0.0, 0.125, 1.0, 3.625, 1e6 + 0.25}) {
    EXPECT_EQ(weighted_flow_term(1.0, f), f);
  }
  EXPECT_EQ(weighted_flow_term(0.25, 3.0), 0.75);  // dyadic exact product
  EXPECT_EQ(weighted_flow_term(8.0, 0.125), 1.0);
}

// The unit-weight shortcut returns what the Rational product returns, bit
// for bit, wherever that product is defined (-0 included, which it maps to
// +0); elsewhere (subnormals, beyond int64) the flow itself, as w * f did.
TEST(Weighted, UnitWeightTermIsTheFlow) {
  std::vector<double> fs = {0.0,    -0.0,   0.125,  1.0,    3.625,
                            1e6 + 0.25,     0x1p-62, 0x1p62, 0x1p63,
                            1e300,  std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::denorm_min(),
                            0x1p-1030, 0.1, 1.0 / 3.0};
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    fs.push_back(std::ldexp(rng.uniform(),
                            static_cast<int>(rng.uniform_int(-80, 80))));
  }
  for (double f : fs) {
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    const double got = weighted_flow_term(1.0, f);
    if (const auto rf = rational_from_double(f)) {
      EXPECT_EQ(bits(got), bits((Rational(1) * *rf).to_double())) << f;
    } else {
      EXPECT_EQ(bits(got), bits(f)) << f;
    }
  }
}

// Schedule aggregates: max_weighted_flow is the max of per-task
// weighted_flow terms, each term matching weighted_flow_term bitwise.
TEST(Weighted, ScheduleAggregates) {
  const Instance inst = weighted_instance();
  auto policy = make_eft_min();
  const Schedule sched = run_dispatcher(inst, *policy);
  ASSERT_TRUE(sched.validate().ok());

  double max_term = 0, sum_terms = 0;
  for (int i = 0; i < inst.n(); ++i) {
    const double term = weighted_flow_term(inst.task(i).weight, sched.flow(i));
    EXPECT_EQ(sched.weighted_flow(i), term) << "task " << i;
    max_term = std::max(max_term, term);
    sum_terms += term;  // all terms dyadic: double accumulation is exact
  }
  EXPECT_EQ(sched.max_weighted_flow(), max_term);
  EXPECT_EQ(sched.total_weighted_flow(), sum_terms);
  EXPECT_FALSE(inst.unit_weights());
  EXPECT_EQ(inst.wmax(), 8.0);
}

// [weighted-accounting]: collector and schedule compute the weighted
// aggregates from independent paths with the shared recipe, so they agree
// bitwise — not just within an epsilon — and the audited run stays clean.
TEST(Weighted, CollectorAuditorScheduleBitwiseAgree) {
  const Instance inst = weighted_instance();
  auto policy = make_eft_min();
  InvariantAuditor auditor;
  MetricsCollector metrics;
  MulticastObserver fan({&auditor, &metrics});
  const Schedule sched = run_dispatcher(inst, *policy, fan);

  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_TRUE(metrics.any_weighted());
  EXPECT_EQ(metrics.max_weighted_flow(), sched.max_weighted_flow());
  EXPECT_EQ(metrics.total_weighted_flow(), sched.total_weighted_flow());
}

// Unit weights collapse the weighted aggregates onto the unweighted ones
// bitwise, and any_weighted stays false.
TEST(Weighted, UnitWeightsCollapse) {
  std::vector<Task> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.push_back({.release = 0.25 * i,
                     .proc = 0.5 + 0.125 * (i % 4),
                     .eligible = ProcSet({i % 3, (i + 1) % 3})});
  }
  const Instance inst(3, std::move(tasks));
  EXPECT_TRUE(inst.unit_weights());

  auto policy = make_eft_min();
  MetricsCollector metrics;
  const Schedule sched = run_dispatcher(inst, *policy, metrics);
  EXPECT_FALSE(metrics.any_weighted());
  EXPECT_EQ(metrics.max_weighted_flow(), metrics.max_flow());
  EXPECT_EQ(sched.max_weighted_flow(), sched.max_flow());
  EXPECT_EQ(metrics.total_weighted_flow(), sched.total_weighted_flow());
}

// The instance format round-trips the optional 4th weight token bitwise,
// and unit-weight instances keep the legacy 3-token lines.
TEST(Weighted, InstanceIoRoundTrip) {
  const Instance inst = weighted_instance();
  const std::string text = instance_to_string(inst);
  const Instance back = parse_instance_string(text);
  ASSERT_EQ(back.n(), inst.n());
  for (int i = 0; i < inst.n(); ++i) {
    EXPECT_EQ(back.task(i).weight, inst.task(i).weight) << "task " << i;
  }
  EXPECT_EQ(instance_to_string(back), text);

  std::vector<Task> unit = {
      {.release = 0.0, .proc = 1.0, .eligible = ProcSet({0})}};
  const Instance unit_inst(1, std::move(unit));
  const std::string unit_text = instance_to_string(unit_inst);
  // The task line keeps the legacy 4-token shape: "task <r> <p> <machines>".
  const std::size_t task_pos = unit_text.find("task ");
  ASSERT_NE(task_pos, std::string::npos);
  const std::string task_line =
      unit_text.substr(task_pos, unit_text.find('\n', task_pos) - task_pos);
  std::istringstream tokens(task_line);
  std::string tok;
  int count = 0;
  while (tokens >> tok) ++count;
  EXPECT_EQ(count, 4) << task_line;
  EXPECT_TRUE(parse_instance_string(unit_text).unit_weights());
}

// with_random_weights: every weight is a dyadic multiple of 1/8 in
// [1/8, 2] or the heavy tail value, releases/procs/sets are untouched, and
// the draw is reproducible from the rng seed.
TEST(Weighted, RandomWeightsDyadicAndReproducible) {
  std::vector<Task> tasks;
  for (int i = 0; i < 200; ++i) {
    tasks.push_back({.release = 0.125 * i,
                     .proc = 0.25,
                     .eligible = ProcSet({i % 4})});
  }
  const Instance inst(4, std::move(tasks));

  Rng rng(99);
  const Instance weighted = with_random_weights(inst, rng, 0.1, 8.0);
  Rng rng2(99);
  const Instance weighted2 = with_random_weights(inst, rng2, 0.1, 8.0);
  bool any_heavy = false;
  for (int i = 0; i < inst.n(); ++i) {
    const double w = weighted.task(i).weight;
    EXPECT_EQ(w, weighted2.task(i).weight);
    EXPECT_EQ(weighted.task(i).release, inst.task(i).release);
    EXPECT_EQ(weighted.task(i).proc, inst.task(i).proc);
    if (w == 8.0) {
      any_heavy = true;
      continue;
    }
    const double scaled = w * 8.0;
    EXPECT_EQ(scaled, static_cast<double>(static_cast<int>(scaled)));
    EXPECT_GE(scaled, 1.0);
    EXPECT_LE(scaled, 16.0);
  }
  EXPECT_TRUE(any_heavy);  // 200 draws at p = 0.1
  EXPECT_FALSE(weighted.unit_weights());
}

// The cluster sim's weighted report: heavy-key weights are a pure function
// of the key, so the legacy streaming path and the sharded path aggregate
// the identical weighted latency — the report strings match byte for byte
// and carry the weighted columns.
TEST(Weighted, ClusterWeightedReportMatchesAcrossPaths) {
  StoreConfig store_config;
  store_config.m = 16;
  store_config.keys = 400;
  store_config.zipf_s = 0.9;
  store_config.k = 4;
  store_config.strategy = ReplicationStrategy::kDisjoint;
  StreamConfig config;
  config.lambda = 10.0;
  config.requests = 3000;
  config.dist = ServiceDist::kExponential;
  config.heavy_keys = 16;
  config.heavy_weight = 8.0;

  Rng rng_a(77);
  KeyValueStore store_a(store_config, rng_a);
  auto policy = make_eft_min();
  const StreamReport legacy =
      simulate_cluster_streaming(store_a, config, *policy, rng_a);
  EXPECT_NE(legacy.str().find("fmaxw="), std::string::npos) << legacy.str();

  Rng rng_b(77);
  KeyValueStore store_b(store_config, rng_b);
  ShardedEngine::Options opts;
  opts.shards = 4;
  opts.shard_workers = 2;
  const StreamReport sharded = simulate_cluster_streaming_sharded(
      store_b, config, [](int) { return make_eft_min(); }, opts, rng_b);
  EXPECT_EQ(sharded.str(), legacy.str());
}

}  // namespace
}  // namespace flowsched
