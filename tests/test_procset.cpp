#include "model/procset.hpp"

#include <gtest/gtest.h>

#include <future>
#include <utility>
#include <vector>

#include "runner/thread_pool.hpp"

namespace flowsched {
namespace {

TEST(ProcSet, SortsAndDeduplicates) {
  const ProcSet s({3, 1, 3, 2});
  EXPECT_EQ(s.machines(), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.size(), 3);
}

TEST(ProcSet, RejectsNegativeIndex) {
  EXPECT_THROW(ProcSet({0, -1}), std::invalid_argument);
}

TEST(ProcSet, AllAndSingle) {
  EXPECT_EQ(ProcSet::all(3).machines(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(ProcSet::single(4).machines(), (std::vector<int>{4}));
  EXPECT_THROW(ProcSet::all(0), std::invalid_argument);
}

TEST(ProcSet, Interval) {
  EXPECT_EQ(ProcSet::interval(2, 4).machines(), (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(ProcSet::interval(3, 3).machines(), (std::vector<int>{3}));
  EXPECT_THROW(ProcSet::interval(4, 2), std::invalid_argument);
}

TEST(ProcSet, RingIntervalWraps) {
  // I_3(5) on m=6: machines {5, 0, 1}.
  EXPECT_EQ(ProcSet::ring_interval(5, 3, 6).machines(),
            (std::vector<int>{0, 1, 5}));
  EXPECT_EQ(ProcSet::ring_interval(1, 3, 6).machines(),
            (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ProcSet::ring_interval(0, 6, 6).size(), 6);
  EXPECT_THROW(ProcSet::ring_interval(0, 7, 6), std::invalid_argument);
  EXPECT_THROW(ProcSet::ring_interval(6, 2, 6), std::invalid_argument);
}

TEST(ProcSet, Contains) {
  const ProcSet s({1, 3, 5});
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(2));
}

TEST(ProcSet, SubsetAndIntersection) {
  const ProcSet a({1, 2});
  const ProcSet b({1, 2, 3});
  const ProcSet c({4, 5});
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
  EXPECT_TRUE(ProcSet().is_subset_of(a));  // empty set is subset of anything
}

TEST(ProcSet, Within) {
  EXPECT_TRUE(ProcSet({0, 4}).within(5));
  EXPECT_FALSE(ProcSet({0, 5}).within(5));
  EXPECT_TRUE(ProcSet().within(1));
}

TEST(ProcSet, Contiguity) {
  EXPECT_TRUE(ProcSet({2, 3, 4}).is_contiguous());
  EXPECT_FALSE(ProcSet({2, 4}).is_contiguous());
  EXPECT_TRUE(ProcSet().is_contiguous());
}

TEST(ProcSet, IntervalDefinitionIncludesWrappedForm) {
  // {0, 1, 5} on m=6 is the wrapped interval {j <= 1 or j >= 5}.
  EXPECT_TRUE(ProcSet({0, 1, 5}).is_interval(6));
  EXPECT_TRUE(ProcSet({2, 3}).is_interval(6));
  // {0, 2, 4}: neither itself nor its complement {1, 3, 5} is contiguous.
  EXPECT_FALSE(ProcSet({0, 2, 4}).is_interval(6));
  // Full set is trivially an interval.
  EXPECT_TRUE(ProcSet::all(6).is_interval(6));
  EXPECT_THROW(ProcSet({7}).is_interval(6), std::invalid_argument);
}

TEST(ProcSet, RingIntervalsAreIntervalsInPaperSense) {
  for (int start = 0; start < 6; ++start) {
    for (int k = 1; k <= 6; ++k) {
      EXPECT_TRUE(ProcSet::ring_interval(start, k, 6).is_interval(6))
          << "start=" << start << " k=" << k;
    }
  }
}

TEST(ProcSet, MinMaxAndEmptyThrows) {
  const ProcSet s({2, 7});
  EXPECT_EQ(s.min(), 2);
  EXPECT_EQ(s.max(), 7);
  EXPECT_THROW(ProcSet().min(), std::logic_error);
  EXPECT_THROW(ProcSet().max(), std::logic_error);
}

TEST(ProcSet, StringUsesOneBasedNames) {
  EXPECT_EQ(ProcSet({1, 2}).str(), "{M2,M3}");
}

// --- Shared member storage ---------------------------------------------------

TEST(ProcSetSharing, CopiesShareOneMemberBlock) {
  const ProcSet a({9, 1, 4});
  const ProcSet b = a;
  EXPECT_EQ(a.machines().data(), b.machines().data());
  ProcSet c;
  c = b;
  EXPECT_EQ(c.machines().data(), a.machines().data());
  const ProcSet& alias = c;
  c = alias;  // self-assignment keeps the block alive
  EXPECT_EQ(c.machines().data(), a.machines().data());
  const ProcSet d = std::move(c);
  EXPECT_EQ(d.machines().data(), a.machines().data());
  EXPECT_EQ(d.machines(), (std::vector<int>{1, 4, 9}));
}

TEST(ProcSetSharing, EqualityAndHashDependOnMembersOnly) {
  const ProcSet a({1, 4, 9});
  const ProcSet b({9, 4, 1, 4});  // built separately: its own block
  EXPECT_NE(a.machines().data(), b.machines().data());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_FALSE(a == ProcSet({1, 4}));
  // The hash values of the unshared layout, pinned.
  EXPECT_EQ(ProcSet().hash(), 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(ProcSet({0}).hash(), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(a.hash(), 0x7affe19d2bfa7af9ULL);
  EXPECT_EQ(ProcSet::all(64).hash(), 0xc1dfdf371a3c6aadULL);
}

TEST(ProcSetSharing, DefaultEqualsEmptyList) {
  const ProcSet none;
  const ProcSet listed(std::vector<int>{});
  EXPECT_EQ(none, listed);
  EXPECT_EQ(none.hash(), listed.hash());
  EXPECT_TRUE(listed.empty());
  EXPECT_EQ(listed.size(), 0);
  EXPECT_TRUE(listed.machines().empty());
  EXPECT_FALSE(none == ProcSet({0}));
}

// Pool workers copy one set and drop their copies while other workers do
// the same; sets built on a worker are released on the main thread. The
// count must stay exact (tools/tsan_check.sh runs this under TSan).
TEST(ProcSetSharing, PoolThreadsCopyAndReleaseSharedSets) {
  const ProcSet shared = ProcSet::ring_interval(5, 3, 8);
  std::vector<std::future<ProcSet>> results;
  {
    ThreadPool pool(4);
    for (int w = 0; w < 8; ++w) {
      results.push_back(pool.submit([&shared, w] {
        std::vector<ProcSet> copies;
        for (int i = 0; i < 2000; ++i) {
          copies.push_back(shared);
          if (copies.size() > 8) copies.erase(copies.begin());
        }
        return ProcSet({w, w + 1});
      }));
    }
    std::vector<ProcSet> sets;
    for (auto& r : results) sets.push_back(r.get());
    for (int w = 0; w < 8; ++w) {
      EXPECT_EQ(sets[static_cast<std::size_t>(w)], ProcSet({w, w + 1}));
    }
  }
  EXPECT_EQ(shared.machines(), (std::vector<int>{5, 6, 7}));
  EXPECT_EQ(ProcSet(shared).machines().data(), shared.machines().data());
}

}  // namespace
}  // namespace flowsched
