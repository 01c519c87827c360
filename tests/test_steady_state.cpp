#include "sim/steady_state.hpp"

#include <gtest/gtest.h>

#include "sched/engine.hpp"
#include "support/profile.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace flowsched {
namespace {

TEST(SteadyState, TrimWarmupDropsPrefix) {
  const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const auto trimmed = trim_warmup(xs, 0.3);
  EXPECT_EQ(trimmed.size(), 7u);
  EXPECT_DOUBLE_EQ(trimmed.front(), 4.0);
  EXPECT_EQ(trim_warmup(xs, 0.0).size(), 10u);
  EXPECT_THROW(trim_warmup(xs, 1.0), std::invalid_argument);
  EXPECT_THROW(trim_warmup(xs, -0.1), std::invalid_argument);
}

TEST(SteadyState, TCriticalValues) {
  EXPECT_NEAR(t_critical_95(1), 12.706, 1e-3);
  EXPECT_NEAR(t_critical_95(19), 2.093, 1e-3);
  EXPECT_NEAR(t_critical_95(30), 2.042, 1e-3);
  EXPECT_NEAR(t_critical_95(1000), 1.96, 1e-9);
  EXPECT_THROW(t_critical_95(0), std::invalid_argument);
}

TEST(SteadyState, BatchMeansOnConstantStream) {
  const std::vector<double> xs(200, 5.0);
  const auto r = batch_means_ci(xs, 10);
  EXPECT_DOUBLE_EQ(r.mean, 5.0);
  EXPECT_DOUBLE_EQ(r.half_width, 0.0);
  EXPECT_EQ(r.batches, 10);
}

TEST(SteadyState, BatchMeansCoversTrueMeanOfIidStream) {
  Rng rng(99);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.exponential(0.5));  // mean 2
  const auto r = batch_means_ci(xs, 20);
  EXPECT_NEAR(r.mean, 2.0, 3 * r.half_width + 1e-9);
  EXPECT_GT(r.half_width, 0.0);
  EXPECT_LT(std::abs(r.batch_autocorrelation), 0.5);
}

TEST(SteadyState, BatchMeansRejectsBadInput) {
  const std::vector<double> xs{1, 2, 3};
  EXPECT_THROW(batch_means_ci(xs, 1), std::invalid_argument);
  EXPECT_THROW(batch_means_ci(xs, 4), std::invalid_argument);
}

TEST(SteadyState, BacklogMatchesHandComputation) {
  // Two unit tasks on one machine at t=0: backlog at 0 is 2, at 1 is 1,
  // past the makespan it is 0.
  const auto inst = Instance::unrestricted(1, {{0.0, 1.0}, {0.0, 1.0}});
  Schedule sched(inst);
  sched.assign(0, 0, 0.0);
  sched.assign(1, 0, 1.0);
  EXPECT_DOUBLE_EQ(total_backlog_at(sched, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(total_backlog_at(sched, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(total_backlog_at(sched, 5.0), 0.0);
}

TEST(SteadyState, BacklogIgnoresUnreleasedTasks) {
  const auto inst = Instance::unrestricted(1, {{0.0, 1.0}, {10.0, 1.0}});
  Schedule sched(inst);
  sched.assign(0, 0, 0.0);
  sched.assign(1, 0, 10.0);
  EXPECT_DOUBLE_EQ(total_backlog_at(sched, 0.5), 0.5);  // only the first task
  EXPECT_DOUBLE_EQ(total_backlog_at(sched, 10.0), 1.0);
}

TEST(SteadyState, TimeseriesCoversMakespan) {
  Rng rng(3);
  RandomInstanceOptions opts;
  opts.m = 3;
  opts.n = 100;
  opts.max_release = 30.0;
  const auto inst = random_instance(opts, rng);
  EftDispatcher eft(TieBreakKind::kMin);
  const auto sched = run_dispatcher(inst, eft);
  const auto series = backlog_timeseries(sched, 25);
  ASSERT_EQ(series.size(), 25u);
  EXPECT_NEAR(series.back().first, sched.makespan(), 1e-9);
  // At (just past) the makespan the system has drained.
  EXPECT_NEAR(series.back().second, 0.0, 1e-6);
  for (const auto& [t, backlog] : series) EXPECT_GE(backlog, -1e-9);
}

TEST(SteadyState, StableSystemBacklogStaysBounded) {
  // 50% offered load: the backlog must not trend upward over the run.
  Rng rng(5);
  const auto pop = make_popularity(PopularityCase::kUniform, 6, 0.0, rng);
  KvWorkloadConfig config;
  config.m = 6;
  config.n = 6000;
  config.lambda = 3.0;
  const auto inst = generate_kv_instance(config, pop, rng);
  EftDispatcher eft(TieBreakKind::kMin);
  const auto sched = run_dispatcher(inst, eft);
  const auto series = backlog_timeseries(sched, 20);
  double first_half = 0;
  double second_half = 0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    (i < series.size() / 2 ? first_half : second_half) += series[i].second;
  }
  EXPECT_LT(second_half, 3 * first_half + 10.0);
}

}  // namespace
}  // namespace flowsched
