#include "model/structure.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/checks.hpp"
#include "workload/replication.hpp"

namespace flowsched {
namespace {

std::vector<ProcSet> disjoint_blocks() {
  return {ProcSet({0, 1}), ProcSet({2, 3}), ProcSet({0, 1})};
}

std::vector<ProcSet> inclusive_chain() {
  return {ProcSet({0}), ProcSet({0, 1}), ProcSet({0, 1, 2, 3})};
}

std::vector<ProcSet> nested_only() {
  return {ProcSet({0, 1}), ProcSet({0}), ProcSet({2, 3}), ProcSet({2})};
}

std::vector<ProcSet> general_family() {
  return {ProcSet({0, 1}), ProcSet({1, 2})};  // overlapping, not comparable
}

TEST(Structure, DisjointFamily) {
  EXPECT_TRUE(is_disjoint_family(disjoint_blocks()));
  EXPECT_FALSE(is_disjoint_family(inclusive_chain()));
  EXPECT_FALSE(is_disjoint_family(general_family()));
}

TEST(Structure, InclusiveFamily) {
  EXPECT_TRUE(is_inclusive_family(inclusive_chain()));
  EXPECT_FALSE(is_inclusive_family(disjoint_blocks()));
  EXPECT_FALSE(is_inclusive_family(general_family()));
}

TEST(Structure, NestedFamily) {
  EXPECT_TRUE(is_nested_family(nested_only()));
  // Figure 1: disjoint and inclusive are special cases of nested.
  EXPECT_TRUE(is_nested_family(disjoint_blocks()));
  EXPECT_TRUE(is_nested_family(inclusive_chain()));
  EXPECT_FALSE(is_nested_family(general_family()));
}

TEST(Structure, IntervalFamily) {
  EXPECT_TRUE(is_interval_family(general_family(), 4));
  EXPECT_TRUE(is_interval_family(disjoint_blocks(), 4));
  const std::vector<ProcSet> scattered{ProcSet({0, 2})};
  EXPECT_FALSE(is_interval_family(scattered, 4));
}

TEST(Structure, UniformSize) {
  int k = 0;
  EXPECT_TRUE(is_uniform_size_family(general_family(), &k));
  EXPECT_EQ(k, 2);
  EXPECT_FALSE(is_uniform_size_family(inclusive_chain(), &k));
  EXPECT_TRUE(is_uniform_size_family({}, &k));
  EXPECT_EQ(k, 0);
}

TEST(Structure, ClassifyMostSpecific) {
  EXPECT_EQ(classify_family(disjoint_blocks(), 4).most_specific(), "disjoint");
  EXPECT_EQ(classify_family(inclusive_chain(), 4).most_specific(), "inclusive");
  EXPECT_EQ(classify_family(nested_only(), 4).most_specific(), "nested");
  EXPECT_EQ(classify_family(general_family(), 4).most_specific(), "interval");
  // {0,2} and {1,3} intersect with nothing -> still disjoint; a truly
  // general family needs overlapping, incomparable, non-interval sets.
  const std::vector<ProcSet> scattered{ProcSet({0, 2}), ProcSet({0, 3})};
  EXPECT_EQ(classify_family(scattered, 4).most_specific(), "general");
}

TEST(Structure, ClassifySetsHierarchyFlags) {
  const auto flags = classify_family(disjoint_blocks(), 4);
  EXPECT_TRUE(flags.disjoint);
  EXPECT_TRUE(flags.nested);    // implied by disjoint
  EXPECT_TRUE(flags.interval);  // blocks are contiguous here
  EXPECT_FALSE(flags.inclusive);
}

TEST(Structure, DisjointReplicationIsDisjointAndInterval) {
  const auto sets = replica_sets(ReplicationStrategy::kDisjoint, 3, 15);
  EXPECT_TRUE(is_disjoint_family(sets));
  EXPECT_TRUE(is_interval_family(sets, 15));
}

TEST(Structure, OverlappingReplicationIsIntervalOnly) {
  const auto sets = replica_sets(ReplicationStrategy::kOverlapping, 3, 15);
  EXPECT_TRUE(is_interval_family(sets, 15));
  EXPECT_FALSE(is_nested_family(sets));
  EXPECT_FALSE(is_disjoint_family(sets));
  EXPECT_FALSE(is_inclusive_family(sets));
}

TEST(Structure, SingletonFamilyIsEverything) {
  const std::vector<ProcSet> one{ProcSet({1, 2})};
  const auto flags = classify_family(one, 4);
  EXPECT_TRUE(flags.disjoint);
  EXPECT_TRUE(flags.inclusive);
  EXPECT_TRUE(flags.nested);
  EXPECT_TRUE(flags.interval);
}

}  // namespace
}  // namespace flowsched
