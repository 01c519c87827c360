#include "lp/maxflow.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace flowsched {
namespace {

TEST(MaxFlow, SingleEdge) {
  MaxFlow f(2);
  f.add_edge(0, 1, 3.5);
  EXPECT_DOUBLE_EQ(f.solve(0, 1), 3.5);
}

TEST(MaxFlow, SeriesBottleneck) {
  MaxFlow f(3);
  f.add_edge(0, 1, 5.0);
  f.add_edge(1, 2, 2.0);
  EXPECT_DOUBLE_EQ(f.solve(0, 2), 2.0);
}

TEST(MaxFlow, ParallelPathsSum) {
  MaxFlow f(4);
  f.add_edge(0, 1, 2.0);
  f.add_edge(1, 3, 2.0);
  f.add_edge(0, 2, 3.0);
  f.add_edge(2, 3, 3.0);
  EXPECT_DOUBLE_EQ(f.solve(0, 3), 5.0);
}

TEST(MaxFlow, ClassicAugmentingCase) {
  // Diamond with cross edge: requires augmentation through the middle.
  MaxFlow f(4);
  f.add_edge(0, 1, 1.0);
  f.add_edge(0, 2, 1.0);
  f.add_edge(1, 2, 1.0);
  f.add_edge(1, 3, 1.0);
  f.add_edge(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(f.solve(0, 3), 2.0);
}

TEST(MaxFlow, DisconnectedIsZero) {
  MaxFlow f(4);
  f.add_edge(0, 1, 1.0);
  f.add_edge(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(f.solve(0, 3), 0.0);
}

TEST(MaxFlow, FlowOnReportsPerEdgeFlow) {
  MaxFlow f(3);
  const int e01 = f.add_edge(0, 1, 4.0);
  const int e12 = f.add_edge(1, 2, 3.0);
  EXPECT_DOUBLE_EQ(f.solve(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(f.flow_on(e01), 3.0);
  EXPECT_DOUBLE_EQ(f.flow_on(e12), 3.0);
}

TEST(MaxFlow, BipartiteAssignment) {
  // 3 tasks x 2 machines, each machine capacity 1 -> flow 2.
  // Nodes: 0 source, 1-3 tasks, 4-5 machines, 6 sink.
  MaxFlow f(7);
  for (int t = 1; t <= 3; ++t) f.add_edge(0, t, 1.0);
  f.add_edge(1, 4, 1.0);
  f.add_edge(2, 4, 1.0);
  f.add_edge(2, 5, 1.0);
  f.add_edge(3, 5, 1.0);
  f.add_edge(4, 6, 1.0);
  f.add_edge(5, 6, 1.0);
  EXPECT_DOUBLE_EQ(f.solve(0, 6), 2.0);
}

TEST(MaxFlow, FractionalCapacities) {
  MaxFlow f(3);
  f.add_edge(0, 1, 0.25);
  f.add_edge(0, 1, 0.5);
  f.add_edge(1, 2, 1.0);
  EXPECT_DOUBLE_EQ(f.solve(0, 2), 0.75);
}

TEST(MaxFlow, SourceSideIsAMinimumCut) {
  // 0 -> 1 -> 3 and 0 -> 2 -> 3 with a wide 0 -> 2: after solve() node 2 is
  // still reachable over residual capacity, node 1 is not, and the edges
  // leaving {0, 2} carry exactly the max flow.
  MaxFlow f(4);
  f.add_edge(0, 1, 1.0);
  f.add_edge(1, 3, 1.0);
  f.add_edge(0, 2, 5.0);
  f.add_edge(2, 3, 1.0);
  EXPECT_EQ(f.source_side(0), (std::vector<std::uint8_t>{1, 1, 1, 1}));
  EXPECT_DOUBLE_EQ(f.solve(0, 3), 2.0);
  EXPECT_EQ(f.source_side(0), (std::vector<std::uint8_t>{1, 0, 1, 0}));
}

TEST(MaxFlow, RejectsBadConstruction) {
  EXPECT_THROW(MaxFlow(0), std::invalid_argument);
  MaxFlow f(2);
  EXPECT_THROW(f.add_edge(0, 1, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace flowsched
