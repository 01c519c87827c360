#include "lp/maxload.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

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

// A transfer solves (15b)-(15d): entries only on replica-set members, each
// owner's row summing to lambda * P(E_j), each machine's load at most 1.
void expect_consistent_transfer(const std::vector<double>& pop,
                                const std::vector<ProcSet>& sets,
                                const MaxLoadResult& result) {
  ASSERT_EQ(result.transfer.size(), pop.size());
  std::vector<double> load(pop.size(), 0.0);
  for (std::size_t j = 0; j < pop.size(); ++j) {
    const auto& moves = result.transfer[j];
    ASSERT_EQ(moves.size(), sets[j].machines().size()) << "owner " << j;
    double sent = 0;
    for (std::size_t r = 0; r < moves.size(); ++r) {
      const auto [i, a] = moves[r];
      EXPECT_EQ(i, sets[j].machines()[r]) << "owner " << j;
      EXPECT_GE(a, 0.0) << "owner " << j;
      sent += a;
      load[static_cast<std::size_t>(i)] += a;
    }
    const double demand = result.lambda * pop[j];
    EXPECT_NEAR(sent, demand, 1e-9 * demand) << "owner " << j;
  }
  for (std::size_t i = 0; i < load.size(); ++i) {
    EXPECT_LE(load[i], 1.0 + 1e-9) << "machine " << i;
  }
}

TEST(MaxLoad, TransferMatrixIsConsistent) {
  const std::vector<double> pop{0.5, 0.3, 0.2};
  const auto sets = replica_sets(ReplicationStrategy::kOverlapping, 2, 3);
  expect_consistent_transfer(pop, sets, max_load_lp(pop, sets));
  expect_consistent_transfer(pop, sets, max_load_lp_tableau(pop, sets));
}

// Cross-validation: the max-flow Hall oracle and the simplex tableau must
// agree on random popularity/replication combinations, and the Hall
// oracle's transfer must be feasible.
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

class MaxLoadCross : public ::testing::TestWithParam<CrossCase> {
 protected:
  std::vector<double> popularity() const {
    const auto c = GetParam();
    Rng rng(1000 + c.m * 17 + c.k);
    return make_popularity(PopularityCase::kShuffled, c.m, c.s, rng);
  }
  std::vector<ProcSet> sets() const {
    const auto c = GetParam();
    return replica_sets(c.strategy, c.k, c.m);
  }
};

TEST_P(MaxLoadCross, SimplexAgreesWithFlowBisection) {
  const auto c = GetParam();
  const auto pop = popularity();
  const double hall = max_load_lp(pop, sets()).lambda;
  const double tableau = max_load_lp_tableau(pop, sets()).lambda;
  EXPECT_NEAR(hall, tableau, 1e-9 * tableau)
      << "m=" << c.m << " k=" << c.k << " s=" << c.s;
}

TEST_P(MaxLoadCross, TransferMatrixIsConsistent) {
  const auto pop = popularity();
  expect_consistent_transfer(pop, sets(), max_load_lp(pop, sets()));
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

TEST(MaxLoad, BindingSetNeedNotBeAWindow) {
  // Owners 0 and 3 share machine 0 alone; the others spread over 1..5.
  // The binding set {0, 3} is not a cyclic window of owners (any window
  // joining them takes in owners whose sets add machines), and the Hall
  // oracle returns its ratio exactly: 1 / (0.3 + 0.3).
  const std::vector<double> pop{0.3, 0.1, 0.1, 0.3, 0.1, 0.1};
  const ProcSet wide({1, 2, 3, 4, 5});
  const std::vector<ProcSet> sets{ProcSet({0}), wide, wide,
                                  ProcSet({0}), wide, wide};
  const auto result = max_load_lp(pop, sets);
  EXPECT_EQ(result.lambda, 1.0 / (0.3 + 0.3));
  EXPECT_NEAR(max_load_lp_tableau(pop, sets).lambda, result.lambda,
              1e-9 * result.lambda);
  expect_consistent_transfer(pop, sets, result);
}

TEST(MaxLoad, ZeroPopularityOwnersCarryNoWork) {
  // Ring k = 2 on 5 machines, owners 1 and 3 idle. Owner 0 alone binds:
  // 2 machines / 0.5 = 4 (owners {0, 4} tie at 3 / 0.75), below the 5 of
  // all positive owners that the iteration starts from.
  const std::vector<double> pop{0.5, 0.0, 0.25, 0.0, 0.25};
  const auto sets = replica_sets(ReplicationStrategy::kOverlapping, 2, 5);
  const auto result = max_load_lp(pop, sets);
  EXPECT_EQ(result.lambda, 4.0);
  EXPECT_NEAR(max_load_lp_tableau(pop, sets).lambda, 4.0, 1e-9);
  expect_consistent_transfer(pop, sets, result);
  for (std::size_t j : {1u, 3u}) {
    for (const auto& [i, a] : result.transfer[j]) EXPECT_EQ(a, 0.0);
  }
}

TEST(MaxLoad, MoreOriginsThanMachines) {
  // bench_ext_ring's shape: 600 key origins on 15 machines, key j served by
  // the ring arc of 3 machines from j % 15. The 40 keys on arc {0, 1, 2}
  // weigh 4, the rest 1, so those keys (origins 0, 15, 30, ...) bind at
  // 3 / 160, below the 15 / 720 of the whole cluster.
  const int keys = 600;
  const int machines = 15;
  std::vector<double> pop;
  std::vector<ProcSet> sets;
  for (int j = 0; j < keys; ++j) {
    const int first = j % machines;
    pop.push_back(first == 0 ? 4.0 : 1.0);
    sets.push_back(replica_set(ReplicationStrategy::kOverlapping, first, 3,
                               machines));
  }
  const auto result = max_load_lp(pop, sets);
  EXPECT_EQ(result.lambda, 3.0 / 160.0);
  expect_consistent_transfer(pop, sets, result);
}

TEST(MaxLoad, InputValidation) {
  EXPECT_THROW(max_load_lp({}, {}), std::invalid_argument);
  EXPECT_THROW(max_load_lp({0.5, 0.5}, {ProcSet({0})}), std::invalid_argument);
  EXPECT_THROW(max_load_lp({0.5, -0.5}, replica_sets(ReplicationStrategy::kNone, 1, 2)),
               std::invalid_argument);
  EXPECT_THROW(max_load_unreplicated({}), std::invalid_argument);
}

// A NaN Zipf exponent, a non-finite entry or an all-zero vector has no max
// load: every entry point rejects it instead of printing NaN or 0.
TEST(MaxLoad, RejectsNonFiniteAndAllZeroPopularity) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(zipf_weights(8, nan), std::invalid_argument);
  const auto sets = replica_sets(ReplicationStrategy::kOverlapping, 2, 3);
  const std::vector<std::uint8_t> up(3, 1);
  for (const std::vector<double>& pop :
       {std::vector<double>{0.5, nan, 0.25}, std::vector<double>{0.5, inf, 0.25},
        std::vector<double>{0.0, 0.0, 0.0}}) {
    EXPECT_THROW(max_load_lp(pop, sets), std::invalid_argument);
    EXPECT_THROW(max_load_lp_tableau(pop, sets), std::invalid_argument);
    EXPECT_THROW(max_load_unreplicated(pop), std::invalid_argument);
    EXPECT_THROW(
        max_load_windows(pop, ReplicationStrategy::kOverlapping, 2, up),
        std::invalid_argument);
  }
}

// max_load_windows against the max-flow Hall oracle on degraded ring and
// block layouts. One case per (m, strategy, s); inside it Fig. 10's
// k grid (every k <= m up to m = 16, powers of two plus m beyond) and down
// fractions of 0, 15 and 30 %. With every machine up and m <= 64 the dense
// tableau oracle joins in.
struct WindowCase {
  int m;
  ReplicationStrategy strategy;
  double s;

  friend std::ostream& operator<<(std::ostream& os, const WindowCase& c) {
    return os << "m" << c.m << "_" << to_string(c.strategy) << "_s" << c.s;
  }
};

class MaxLoadWindows : public ::testing::TestWithParam<WindowCase> {};

// bench_fig10_maxload's k grid.
std::vector<int> fig10_k_grid(int m) {
  std::vector<int> ks;
  if (m <= 16) {
    for (int k = 1; k <= m; ++k) ks.push_back(k);
  } else {
    for (int k = 1; k < m; k *= 2) ks.push_back(k);
    ks.push_back(m);
  }
  return ks;
}

// The layout's replica sets restricted to the up machines (possibly empty).
std::vector<ProcSet> degraded_sets(ReplicationStrategy strategy, int k,
                                   const std::vector<std::uint8_t>& up) {
  const int m = static_cast<int>(up.size());
  std::vector<ProcSet> sets;
  for (const ProcSet& full : replica_sets(strategy, k, m)) {
    std::vector<int> members;
    for (int i : full.machines()) {
      if (up[static_cast<std::size_t>(i)]) members.push_back(i);
    }
    sets.emplace_back(std::move(members));
  }
  return sets;
}

TEST_P(MaxLoadWindows, AgreesWithSimplexAndFlow) {
  const WindowCase c = GetParam();
  Rng rng(500 + static_cast<std::uint64_t>(c.m) * 7 +
          static_cast<std::uint64_t>(c.s * 2));
  const auto pop = make_popularity(PopularityCase::kShuffled, c.m, c.s, rng);
  std::vector<int> order(static_cast<std::size_t>(c.m));
  for (int i = 0; i < c.m; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int k : fig10_k_grid(c.m)) {
    for (double down_frac : {0.0, 0.15, 0.3}) {
      rng.shuffle(order);
      const int down = static_cast<int>(down_frac * c.m);
      std::vector<std::uint8_t> up(static_cast<std::size_t>(c.m), 1);
      for (int i = 0; i < down; ++i) up[static_cast<std::size_t>(order[i])] = 0;

      const WindowLoadResult w = max_load_windows(pop, c.strategy, k, up);
      const std::vector<ProcSet> degraded = degraded_sets(c.strategy, k, up);
      int first_starved = -1;
      for (int j = c.m - 1; j >= 0; --j) {
        if (degraded[static_cast<std::size_t>(j)].empty()) first_starved = j;
      }
      const std::string where =
          "k=" + std::to_string(k) + " down=" + std::to_string(down);
      ASSERT_GE(w.count, 1) << where;
      ASSERT_LE(w.count, c.m) << where;
      if (first_starved >= 0) {
        // An owner with no up replica: LP (15) is infeasible for any
        // lambda > 0, and that owner alone is the binding window.
        EXPECT_EQ(w.lambda, 0.0) << where;
        EXPECT_EQ(w.first, first_starved) << where;
        EXPECT_EQ(w.count, 1) << where;
        continue;
      }
      const double hall = max_load_lp(pop, degraded).lambda;
      EXPECT_NEAR(w.lambda, hall, 1e-9 * hall) << where;
      if (down == 0 && c.m <= 64) {
        const double oracle = max_load_lp_tableau(pop, degraded).lambda;
        EXPECT_NEAR(w.lambda, oracle, 1e-9 * oracle) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MaxLoadWindows,
    ::testing::ValuesIn([] {
      std::vector<WindowCase> cases;
      for (int m : {4, 7, 16, 64, 128}) {
        for (auto strategy : {ReplicationStrategy::kOverlapping,
                              ReplicationStrategy::kDisjoint}) {
          for (double s : {0.0, 1.0, 2.0}) cases.push_back({m, strategy, s});
        }
      }
      return cases;
    }()),
    ::testing::PrintToStringParamName());

TEST(MaxLoadWindowsPinned, SingleDownMachineStarvesItsOwnerUnderRingK1) {
  std::vector<std::uint8_t> up(8, 1);
  up[5] = 0;
  const auto w = max_load_windows(zipf_weights(8, 0.0),
                                  ReplicationStrategy::kOverlapping, 1, up);
  EXPECT_EQ(w.lambda, 0.0);
  EXPECT_EQ(w.first, 5);
  EXPECT_EQ(w.count, 1);
}

TEST(MaxLoadWindowsPinned, TwoAdjacentDownMachinesStarveOneRingK2Owner) {
  // Owner 3's arc {3, 4} is fully down; owner 2 keeps 2 and owner 4 keeps 5.
  std::vector<std::uint8_t> up(8, 1);
  up[3] = 0;
  up[4] = 0;
  const auto w = max_load_windows(zipf_weights(8, 0.0),
                                  ReplicationStrategy::kOverlapping, 2, up);
  EXPECT_EQ(w.lambda, 0.0);
  EXPECT_EQ(w.first, 3);
  EXPECT_EQ(w.count, 1);
}

TEST(MaxLoadWindowsPinned, ShortLastDisjointBlockBinds) {
  // m = 64, k = 5: the last block {60..63} is short and does not wrap onto
  // machine 0. With machine 63 down its 4 owners share 3 machines:
  // 3 / (4/64) = 48, below the 63 of the whole up cluster.
  std::vector<std::uint8_t> up(64, 1);
  up[63] = 0;
  const auto pop = zipf_weights(64, 0.0);
  const auto w =
      max_load_windows(pop, ReplicationStrategy::kDisjoint, 5, up);
  EXPECT_EQ(w.lambda, 48.0);
  EXPECT_EQ(w.first, 60);
  EXPECT_EQ(w.count, 4);
  EXPECT_NEAR(
      max_load_lp(pop, degraded_sets(ReplicationStrategy::kDisjoint, 5, up))
          .lambda,
      48.0, 1e-9);
}

TEST(MaxLoadWindowsPinned, RejectsSetsThatAreNotArcs) {
  const auto pop = zipf_weights(8, 1.0);
  const std::vector<std::uint8_t> up(8, 1);
  EXPECT_THROW(max_load_windows(pop, ReplicationStrategy::kSpread, 3, up),
               std::invalid_argument);
  EXPECT_THROW(max_load_windows(pop, ReplicationStrategy::kNone, 1, up),
               std::invalid_argument);
  EXPECT_THROW(max_load_windows(pop, ReplicationStrategy::kOverlapping, 9, up),
               std::invalid_argument);
  EXPECT_THROW(max_load_windows(pop, ReplicationStrategy::kOverlapping, 3,
                                std::vector<std::uint8_t>(7, 1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace flowsched
