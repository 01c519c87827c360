#include "offline/bruteforce.hpp"

#include <gtest/gtest.h>

#include "sched/engine.hpp"
#include "workload/generator.hpp"

namespace flowsched {
namespace {

TEST(BruteForce, TrivialSingleTask) {
  const auto inst = Instance::unrestricted(2, {{0.0, 3.0}});
  EXPECT_DOUBLE_EQ(brute_force_opt_fmax(inst), 3.0);
}

TEST(BruteForce, TwoTasksTwoMachines) {
  const auto inst = Instance::unrestricted(2, {{0.0, 2.0}, {0.0, 2.0}});
  EXPECT_DOUBLE_EQ(brute_force_opt_fmax(inst), 2.0);
}

TEST(BruteForce, ForcedSerialization) {
  std::vector<Task> tasks{
      {.release = 0, .proc = 2, .eligible = ProcSet({0})},
      {.release = 0, .proc = 2, .eligible = ProcSet({0})},
  };
  const Instance inst(2, std::move(tasks));
  EXPECT_DOUBLE_EQ(brute_force_opt_fmax(inst), 4.0);
}

TEST(BruteForce, KnowsToReserveMachines) {
  // The Theorem 7 shape: smart assignment avoids blocking.
  std::vector<Task> tasks{
      {.release = 0, .proc = 5, .eligible = ProcSet({1, 2})},
      {.release = 1, .proc = 5, .eligible = ProcSet({0, 1})},
      {.release = 1, .proc = 5, .eligible = ProcSet({0, 1})},
  };
  const Instance inst(4, std::move(tasks));
  EXPECT_DOUBLE_EQ(brute_force_opt_fmax(inst), 5.0);  // T1 -> M2, others M0/M1
}

TEST(BruteForce, NeverWorseThanEft) {
  Rng rng(13);
  RandomInstanceOptions opts;
  opts.m = 3;
  opts.n = 8;
  opts.sets = RandomSets::kIntervals;
  for (int trial = 0; trial < 15; ++trial) {
    const auto inst = random_instance(opts, rng);
    EftDispatcher eft(TieBreakKind::kMin);
    const auto online = run_dispatcher(inst, eft);
    EXPECT_LE(brute_force_opt_fmax(inst), online.max_flow() + 1e-9);
  }
}

TEST(BruteForce, RefusesOversizedInstances) {
  const auto inst = Instance::unrestricted(
      2, std::vector<std::pair<double, double>>(20, {0.0, 1.0}));
  EXPECT_THROW(brute_force_opt_fmax(inst), std::invalid_argument);
  EXPECT_NO_THROW(brute_force_opt_fmax(inst, 20));  // explicit opt-in
}

TEST(BruteForce, EmptyInstanceIsZero) {
  const Instance inst(2, {});
  EXPECT_DOUBLE_EQ(brute_force_opt_fmax(inst), 0.0);
}

}  // namespace
}  // namespace flowsched
