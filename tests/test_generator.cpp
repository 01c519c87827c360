#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "workload/zipf.hpp"

namespace flowsched {
namespace {

TEST(Generator, KvInstanceBasicShape) {
  Rng rng(1);
  KvWorkloadConfig config;
  config.m = 6;
  config.n = 500;
  config.lambda = 3.0;
  config.k = 3;
  const auto pop = zipf_weights(6, 1.0);
  const auto inst = generate_kv_instance(config, pop, rng);
  EXPECT_EQ(inst.n(), 500);
  EXPECT_EQ(inst.m(), 6);
  EXPECT_TRUE(inst.unit_tasks());
  // Releases non-decreasing (Instance guarantees sorting, generator
  // produces them sorted already).
  for (int i = 1; i < inst.n(); ++i) {
    EXPECT_GE(inst.task(i).release, inst.task(i - 1).release);
  }
}

TEST(Generator, KvArrivalRateMatchesLambda) {
  Rng rng(2);
  KvWorkloadConfig config;
  config.m = 6;
  config.n = 50000;
  config.lambda = 4.0;
  const auto pop = zipf_weights(6, 0.0);
  const auto inst = generate_kv_instance(config, pop, rng);
  const double horizon = inst.task(inst.n() - 1).release;
  EXPECT_NEAR(inst.n() / horizon, 4.0, 0.1);
}

TEST(Generator, KvProcessingSetsMatchStrategy) {
  Rng rng(3);
  KvWorkloadConfig config;
  config.m = 6;
  config.n = 300;
  config.strategy = ReplicationStrategy::kDisjoint;
  config.k = 3;
  const auto pop = zipf_weights(6, 1.0);
  const auto inst = generate_kv_instance(config, pop, rng);
  const auto blocks = replica_sets(ReplicationStrategy::kDisjoint, 3, 6);
  for (const Task& t : inst.tasks()) {
    EXPECT_TRUE(t.eligible == blocks[0] || t.eligible == blocks[3])
        << t.eligible.str();
  }
}

TEST(Generator, KvOwnerFrequenciesFollowPopularity) {
  Rng rng(4);
  KvWorkloadConfig config;
  config.m = 4;
  config.n = 80000;
  config.strategy = ReplicationStrategy::kNone;
  config.k = 1;
  const std::vector<double> pop{0.4, 0.3, 0.2, 0.1};
  const auto inst = generate_kv_instance(config, pop, rng);
  std::vector<int> counts(4, 0);
  for (const Task& t : inst.tasks()) ++counts[static_cast<std::size_t>(t.eligible.min())];
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(counts[static_cast<std::size_t>(j)] / 80000.0,
                pop[static_cast<std::size_t>(j)], 0.01);
  }
}

TEST(Generator, KvRejectsBadInput) {
  Rng rng(5);
  KvWorkloadConfig config;
  config.m = 4;
  EXPECT_THROW(generate_kv_instance(config, {0.5, 0.5}, rng),
               std::invalid_argument);
  for (const double lambda : {0.0, std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
    config.lambda = lambda;
    EXPECT_THROW(generate_kv_instance(config, std::vector<double>(4, 0.25), rng),
                 std::invalid_argument)
        << "lambda=" << lambda;
  }
}

TEST(Generator, RandomInstanceHonorsOptions) {
  Rng rng(6);
  RandomInstanceOptions opts;
  opts.m = 5;
  opts.n = 200;
  opts.unit_tasks = true;
  opts.integer_releases = true;
  opts.max_release = 20.0;
  opts.sets = RandomSets::kRingIntervals;
  const auto inst = random_instance(opts, rng);
  EXPECT_TRUE(inst.unit_tasks());
  for (const Task& t : inst.tasks()) {
    EXPECT_EQ(t.release, static_cast<long long>(t.release));
    EXPECT_TRUE(t.eligible.is_interval(5)) << t.eligible.str();
    EXPECT_GE(t.eligible.size(), 1);
  }
}

TEST(Generator, RandomInstanceProcRange) {
  Rng rng(7);
  RandomInstanceOptions opts;
  opts.m = 2;
  opts.n = 500;
  opts.min_proc = 2.0;
  opts.max_proc = 3.0;
  const auto inst = random_instance(opts, rng);
  for (const Task& t : inst.tasks()) {
    EXPECT_GE(t.proc, 2.0);
    EXPECT_LT(t.proc, 3.0);
  }
}

TEST(Generator, ArbitrarySetsAreNonEmpty) {
  Rng rng(8);
  RandomInstanceOptions opts;
  opts.m = 4;
  opts.n = 300;
  opts.sets = RandomSets::kArbitrary;
  const auto inst = random_instance(opts, rng);
  for (const Task& t : inst.tasks()) EXPECT_GE(t.eligible.size(), 1);
}

}  // namespace
}  // namespace flowsched
