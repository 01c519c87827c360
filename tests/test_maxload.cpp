#include "lp/maxload.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "workload/popularity.hpp"
#include "workload/replication.hpp"
#include "workload/zipf.hpp"

namespace flowsched {
namespace {

TEST(MaxLoad, UniformPopularityFullReplicationSaturates) {
  // k = m: any machine serves any key; max lambda = m.
  const int m = 6;
  const auto pop = zipf_weights(m, 0.0);
  const auto sets = replica_sets(ReplicationStrategy::kOverlapping, m, m);
  const auto result = max_load_lp(pop, sets);
  EXPECT_NEAR(result.lambda, m, 1e-6);
}

TEST(MaxLoad, UniformPopularityNoReplication) {
  // Each machine gets 1/m of the load, saturating at lambda = m.
  const int m = 5;
  const auto pop = zipf_weights(m, 0.0);
  const auto sets = replica_sets(ReplicationStrategy::kNone, 1, m);
  EXPECT_NEAR(max_load_lp(pop, sets).lambda, m, 1e-6);
  EXPECT_NEAR(max_load_unreplicated(pop), m, 1e-9);
}

TEST(MaxLoad, SkewedPopularityNoReplicationBottleneck) {
  // P = (1/2, 1/4, 1/4): lambda <= 1 / 0.5 = 2.
  const std::vector<double> pop{0.5, 0.25, 0.25};
  const auto sets = replica_sets(ReplicationStrategy::kNone, 1, 3);
  EXPECT_NEAR(max_load_lp(pop, sets).lambda, 2.0, 1e-6);
  EXPECT_NEAR(max_load_unreplicated(pop), 2.0, 1e-12);
}

TEST(MaxLoad, ReplicationLiftsBottleneck) {
  // Hot machine 0 can shed load to its replicas.
  const std::vector<double> pop{0.5, 0.25, 0.125, 0.125};
  const auto none = replica_sets(ReplicationStrategy::kNone, 1, 4);
  const auto ring = replica_sets(ReplicationStrategy::kOverlapping, 2, 4);
  const double lam_none = max_load_lp(pop, none).lambda;
  const double lam_ring = max_load_lp(pop, ring).lambda;
  EXPECT_GT(lam_ring, lam_none + 0.5);
}

TEST(MaxLoad, TransferMatrixIsConsistent) {
  const std::vector<double> pop{0.5, 0.3, 0.2};
  const auto sets = replica_sets(ReplicationStrategy::kOverlapping, 2, 3);
  const auto result = max_load_lp(pop, sets);
  // (15b): column sums equal lambda * P(E_j).
  for (int j = 0; j < 3; ++j) {
    double col = 0;
    for (int i = 0; i < 3; ++i) col += result.transfer[i][j];
    EXPECT_NEAR(col, result.lambda * pop[j], 1e-6);
  }
  // (15c): row sums at most 1.
  for (int i = 0; i < 3; ++i) {
    double row = 0;
    for (int j = 0; j < 3; ++j) row += result.transfer[i][j];
    EXPECT_LE(row, 1.0 + 1e-6);
  }
  // (15d): transfers only within replica sets.
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (!sets[j].contains(i)) EXPECT_EQ(result.transfer[i][j], 0.0);
    }
  }
}

// Cross-validation: the simplex LP and the max-flow bisection must agree on
// random popularity/replication combinations.
struct CrossCase {
  int m;
  int k;
  double s;
  ReplicationStrategy strategy;

  friend std::ostream& operator<<(std::ostream& os, const CrossCase& c) {
    return os << "m" << c.m << "_k" << c.k << "_s" << c.s << "_"
              << to_string(c.strategy);
  }
};

class MaxLoadCross : public ::testing::TestWithParam<CrossCase> {};

TEST_P(MaxLoadCross, SimplexAgreesWithFlowBisection) {
  const auto c = GetParam();
  Rng rng(1000 + c.m * 17 + c.k);
  const auto pop = make_popularity(PopularityCase::kShuffled, c.m, c.s, rng);
  const auto sets = replica_sets(c.strategy, c.k, c.m);
  const double lp = max_load_lp(pop, sets).lambda;
  const double flow = max_load_flow(pop, sets);
  EXPECT_NEAR(lp, flow, 1e-6) << "m=" << c.m << " k=" << c.k << " s=" << c.s;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MaxLoadCross,
    ::testing::Values(
        CrossCase{5, 2, 1.0, ReplicationStrategy::kOverlapping},
        CrossCase{5, 2, 1.0, ReplicationStrategy::kDisjoint},
        CrossCase{8, 3, 0.5, ReplicationStrategy::kOverlapping},
        CrossCase{8, 3, 0.5, ReplicationStrategy::kDisjoint},
        CrossCase{15, 3, 1.0, ReplicationStrategy::kOverlapping},
        CrossCase{15, 3, 1.0, ReplicationStrategy::kDisjoint},
        CrossCase{15, 6, 2.0, ReplicationStrategy::kOverlapping},
        CrossCase{15, 6, 2.0, ReplicationStrategy::kDisjoint},
        CrossCase{15, 15, 3.0, ReplicationStrategy::kOverlapping},
        CrossCase{7, 4, 1.5, ReplicationStrategy::kDisjoint}));

TEST(MaxLoad, OverlappingDominatesDisjoint) {
  // The paper's central experimental claim (Figure 10b): overlapping
  // intervals never sustain less load than disjoint ones.
  Rng rng(77);
  const int m = 15;
  for (double s : {0.5, 1.0, 1.5, 2.0}) {
    const auto pop = make_popularity(PopularityCase::kShuffled, m, s, rng);
    for (int k : {2, 3, 5}) {
      const double over =
          max_load_lp(pop, replica_sets(ReplicationStrategy::kOverlapping, k, m))
              .lambda;
      const double disj =
          max_load_lp(pop, replica_sets(ReplicationStrategy::kDisjoint, k, m))
              .lambda;
      EXPECT_GE(over, disj - 1e-6) << "s=" << s << " k=" << k;
    }
  }
}

TEST(MaxLoad, NoBiasMeansNoStrategyDifference) {
  // Figure 10: at s = 0 both strategies saturate at 100%.
  const int m = 12;
  const auto pop = zipf_weights(m, 0.0);
  for (int k : {2, 3, 4}) {
    const double over =
        max_load_lp(pop, replica_sets(ReplicationStrategy::kOverlapping, k, m))
            .lambda;
    const double disj =
        max_load_lp(pop, replica_sets(ReplicationStrategy::kDisjoint, k, m))
            .lambda;
    EXPECT_NEAR(over, m, 1e-6);
    EXPECT_NEAR(disj, m, 1e-6);
  }
}

TEST(MaxLoad, WarmSweepMatchesColdSolvesAndOracles) {
  // A MaxLoadSolver chained over a popularity sweep (the Fig. 10 shape:
  // fixed replica sets, s-ascending popularity vectors, each solve
  // warm-started from the previous basis) must match one-shot cold solves,
  // the dense tableau oracle, and the flow bisection at every cell.
  const int m = 12;
  for (auto strategy :
       {ReplicationStrategy::kOverlapping, ReplicationStrategy::kDisjoint}) {
    const auto sets = replica_sets(strategy, 3, m);
    MaxLoadSolver solver(sets);
    for (double s : {0.0, 0.5, 1.0, 1.5, 2.0, 2.5}) {
      Rng rng(4242);
      const auto pop = make_popularity(PopularityCase::kShuffled, m, s, rng);
      const double warm = solver.solve_lambda(pop);
      const double cold = max_load_lp(pop, sets).lambda;
      const double oracle = max_load_lp_tableau(pop, sets).lambda;
      const double flow = max_load_flow(pop, sets);
      EXPECT_NEAR(warm, cold, 1e-7) << "s=" << s;
      EXPECT_NEAR(warm, oracle, 1e-7) << "s=" << s;
      EXPECT_NEAR(warm, flow, 1e-6) << "s=" << s;
    }
  }
}

TEST(MaxLoad, SolverFullResultMatchesOneShot) {
  const std::vector<double> pop{0.4, 0.3, 0.2, 0.1};
  const auto sets = replica_sets(ReplicationStrategy::kOverlapping, 2, 4);
  MaxLoadSolver solver(sets);
  const auto warm = solver.solve(pop);
  const auto cold = max_load_lp(pop, sets);
  EXPECT_NEAR(warm.lambda, cold.lambda, 1e-9);
  for (int j = 0; j < 4; ++j) {
    double col = 0;
    for (int i = 0; i < 4; ++i) col += warm.transfer[i][j];
    EXPECT_NEAR(col, warm.lambda * pop[j], 1e-6);
  }
}

TEST(MaxLoad, InputValidation) {
  EXPECT_THROW(max_load_lp({}, {}), std::invalid_argument);
  EXPECT_THROW(max_load_lp({0.5, 0.5}, {ProcSet({0})}), std::invalid_argument);
  EXPECT_THROW(max_load_lp({0.5, -0.5}, replica_sets(ReplicationStrategy::kNone, 1, 2)),
               std::invalid_argument);
  EXPECT_THROW(max_load_unreplicated({}), std::invalid_argument);
}

}  // namespace
}  // namespace flowsched
