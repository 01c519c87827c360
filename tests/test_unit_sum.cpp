#include "offline/unit_sum.hpp"

#include <gtest/gtest.h>

#include "offline/mincost_matching.hpp"
#include "sched/engine.hpp"
#include "workload/generator.hpp"

namespace flowsched {
namespace {

// ------------------------------------------------------ MinCostMatching

TEST(MinCostMatching, PicksCheapAssignment) {
  MinCostMatching m(2, 2);
  m.add_edge(0, 0, 1.0);
  m.add_edge(0, 1, 10.0);
  m.add_edge(1, 0, 10.0);
  m.add_edge(1, 1, 1.0);
  const auto r = m.solve();
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.total_cost, 2.0);
  EXPECT_EQ(r.match[0], 0);
  EXPECT_EQ(r.match[1], 1);
}

TEST(MinCostMatching, TakesExpensiveEdgeWhenForced) {
  // Greedy would give 0->0 (cost 0) and strand 1; the optimum reroutes.
  MinCostMatching m(2, 2);
  m.add_edge(0, 0, 0.0);
  m.add_edge(0, 1, 5.0);
  m.add_edge(1, 0, 1.0);
  const auto r = m.solve();
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.total_cost, 6.0);
  EXPECT_EQ(r.match[0], 1);
  EXPECT_EQ(r.match[1], 0);
}

TEST(MinCostMatching, ReportsInfeasibility) {
  MinCostMatching m(2, 2);
  m.add_edge(0, 0, 1.0);
  m.add_edge(1, 0, 1.0);  // both want the same right node
  const auto r = m.solve();
  EXPECT_FALSE(r.feasible);
}

TEST(MinCostMatching, RejectsNegativeCostAndBadNodes) {
  MinCostMatching m(1, 1);
  EXPECT_THROW(m.add_edge(0, 0, -1.0), std::invalid_argument);
  EXPECT_THROW(m.add_edge(0, 2, 1.0), std::invalid_argument);
}

TEST(MinCostMatching, MatchesBruteForceOnRandomCosts) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 5;
    std::vector<std::vector<double>> cost(n, std::vector<double>(n));
    MinCostMatching m(n, n);
    for (int l = 0; l < n; ++l) {
      for (int r = 0; r < n; ++r) {
        cost[static_cast<std::size_t>(l)][static_cast<std::size_t>(r)] =
            rng.uniform(0.0, 10.0);
        m.add_edge(l, r, cost[static_cast<std::size_t>(l)][static_cast<std::size_t>(r)]);
      }
    }
    // Brute force over all 5! permutations.
    std::vector<int> perm{0, 1, 2, 3, 4};
    double best = 1e18;
    do {
      double total = 0;
      for (int l = 0; l < n; ++l) {
        total += cost[static_cast<std::size_t>(l)][static_cast<std::size_t>(perm[static_cast<std::size_t>(l)])];
      }
      best = std::min(best, total);
    } while (std::next_permutation(perm.begin(), perm.end()));
    const auto r = m.solve();
    ASSERT_TRUE(r.feasible);
    EXPECT_NEAR(r.total_cost, best, 1e-9) << "trial " << trial;
  }
}

// ------------------------------------------------------------- unit_sum

// Brute force: enumerate machine assignments; per machine, assign the
// release-sorted tasks greedily to the earliest free slots (optimal for
// unit tasks and a sum objective on one machine).
double brute_min_total_flow(const Instance& inst) {
  const int n = inst.n();
  const int m = inst.m();
  std::vector<int> choice(static_cast<std::size_t>(n), 0);
  double best = 1e18;
  while (true) {
    bool valid = true;
    for (int i = 0; i < n && valid; ++i) {
      valid = inst.task(i).eligible.contains(choice[static_cast<std::size_t>(i)]);
    }
    if (valid) {
      double total = 0;
      for (int j = 0; j < m; ++j) {
        double frontier = 0;
        for (int i = 0; i < n; ++i) {  // release-sorted order
          if (choice[static_cast<std::size_t>(i)] != j) continue;
          const double start = std::max(inst.task(i).release, frontier);
          frontier = start + 1;
          total += frontier - inst.task(i).release;
        }
      }
      best = std::min(best, total);
    }
    int pos = 0;
    while (pos < n && ++choice[static_cast<std::size_t>(pos)] == m) {
      choice[static_cast<std::size_t>(pos)] = 0;
      ++pos;
    }
    if (pos == n) break;
  }
  return best;
}

TEST(UnitSum, TotalFlowSimpleContention) {
  // 3 tasks at 0 on one machine: flows 1+2+3 = 6.
  std::vector<Task> tasks(3, Task{.release = 0, .proc = 1, .eligible = ProcSet({0})});
  const Instance inst(1, std::move(tasks));
  EXPECT_DOUBLE_EQ(unit_min_total_flow(inst), 6.0);
}

TEST(UnitSum, ScheduleRealizesObjective) {
  Rng rng(7);
  RandomInstanceOptions opts;
  opts.m = 3;
  opts.n = 10;
  opts.unit_tasks = true;
  opts.integer_releases = true;
  opts.sets = RandomSets::kArbitrary;
  const auto inst = random_instance(opts, rng);
  Schedule sched(inst);
  const double objective = unit_min_total_flow(inst, &sched);
  EXPECT_TRUE(sched.validate().ok()) << sched.validate().str();
  double total = 0;
  for (int i = 0; i < inst.n(); ++i) total += sched.flow(i);
  EXPECT_NEAR(total, objective, 1e-9);
}

TEST(UnitSum, MatchesBruteForceTotalFlow) {
  Rng rng(11);
  RandomInstanceOptions opts;
  opts.m = 3;
  opts.n = 7;
  opts.unit_tasks = true;
  opts.integer_releases = true;
  opts.max_release = 4.0;
  opts.sets = RandomSets::kIntervals;
  for (int trial = 0; trial < 8; ++trial) {
    const auto inst = random_instance(opts, rng);
    EXPECT_NEAR(unit_min_total_flow(inst), brute_min_total_flow(inst), 1e-9)
        << "trial " << trial;
  }
}

TEST(UnitSum, EftNeverBeatsTheExactMeanFlow) {
  Rng rng(13);
  RandomInstanceOptions opts;
  opts.m = 4;
  opts.n = 15;
  opts.unit_tasks = true;
  opts.integer_releases = true;
  opts.sets = RandomSets::kRingIntervals;
  for (int trial = 0; trial < 6; ++trial) {
    const auto inst = random_instance(opts, rng);
    EftDispatcher eft(TieBreakKind::kMin);
    const auto sched = run_dispatcher(inst, eft);
    double eft_total = 0;
    for (int i = 0; i < inst.n(); ++i) eft_total += sched.flow(i);
    EXPECT_GE(eft_total + 1e-9, unit_min_total_flow(inst)) << "trial " << trial;
  }
}

TEST(UnitSum, SparseReleasesStayCheap) {
  // Regression: a huge gap between releases must not blow the slot window
  // up (each task only needs n slots from its own release).
  std::vector<Task> tasks{
      {.release = 0, .proc = 1, .eligible = ProcSet({0})},
      {.release = 1000000, .proc = 1, .eligible = ProcSet({0})}};
  const Instance inst(2, std::move(tasks));
  EXPECT_DOUBLE_EQ(unit_min_total_flow(inst), 2.0);
}

TEST(UnitSum, RejectsBadInput) {
  const auto frac = Instance::unrestricted(2, {{0.5, 1.0}});
  EXPECT_THROW(unit_min_total_flow(frac), std::invalid_argument);
  const auto nonunit = Instance::unrestricted(2, {{0.0, 2.0}});
  EXPECT_THROW(unit_min_total_flow(nonunit), std::invalid_argument);
}

}  // namespace
}  // namespace flowsched
