#include "offline/matching.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace flowsched {
namespace {

TEST(Matching, PerfectMatchingFound) {
  BipartiteMatching m(3, 3);
  m.add_edge(0, 0);
  m.add_edge(0, 1);
  m.add_edge(1, 1);
  m.add_edge(1, 2);
  m.add_edge(2, 0);
  EXPECT_EQ(m.solve(), 3);
}

TEST(Matching, AugmentingPathRequired) {
  // Greedy 0->0 would block 1; Hopcroft-Karp must reroute.
  BipartiteMatching m(2, 2);
  m.add_edge(0, 0);
  m.add_edge(0, 1);
  m.add_edge(1, 0);
  EXPECT_EQ(m.solve(), 2);
}

TEST(Matching, DeficientSide) {
  BipartiteMatching m(3, 1);
  for (int l = 0; l < 3; ++l) m.add_edge(l, 0);
  EXPECT_EQ(m.solve(), 1);
}

TEST(Matching, NoEdgesNoMatch) {
  BipartiteMatching m(4, 4);
  EXPECT_EQ(m.solve(), 0);
}

TEST(Matching, MatchOfIsConsistent) {
  BipartiteMatching m(3, 3);
  m.add_edge(0, 2);
  m.add_edge(1, 0);
  m.add_edge(2, 1);
  EXPECT_EQ(m.solve(), 3);
  // The partner assignment is a bijection onto {0,1,2}.
  std::vector<bool> used(3, false);
  for (int l = 0; l < 3; ++l) {
    const int r = m.match_of(l);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, 3);
    EXPECT_FALSE(used[static_cast<std::size_t>(r)]);
    used[static_cast<std::size_t>(r)] = true;
  }
}

TEST(Matching, HallViolatorLimitsMatching) {
  // Lefts {0,1,2} all connect only to rights {0,1}: max matching 2.
  BipartiteMatching m(3, 3);
  for (int l = 0; l < 3; ++l) {
    m.add_edge(l, 0);
    m.add_edge(l, 1);
  }
  EXPECT_EQ(m.solve(), 2);
}

TEST(Matching, RandomGraphsMatchGreedyUpperBound) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 12;
    BipartiteMatching m(n, n);
    int edges = 0;
    for (int l = 0; l < n; ++l) {
      for (int r = 0; r < n; ++r) {
        if (rng.bernoulli(0.2)) {
          m.add_edge(l, r);
          ++edges;
        }
      }
    }
    const int size = m.solve();
    EXPECT_LE(size, n);
    EXPECT_LE(size, edges);
    // Maximum matching at least any greedy one: rebuild greedily.
    // (Weaker sanity bound: size >= 1 whenever there is an edge.)
    if (edges > 0) {
      EXPECT_GE(size, 1);
    }
  }
}

TEST(Matching, RejectsBadRightNode) {
  BipartiteMatching m(1, 1);
  EXPECT_THROW(m.add_edge(0, 5), std::invalid_argument);
}

}  // namespace
}  // namespace flowsched
