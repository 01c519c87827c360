// CalendarQueue (sched/calendar.hpp): bit-exact pop-order equality against
// a std::priority_queue ordered by (time, insertion seq) — the contract
// that let it replace the retry heap in OnlineEngine and carry the
// machine fronts of StreamingEngine. The reference model assigns seq in
// push order, exactly as the calendar does internally.
#include "sched/calendar.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "util/rng.hpp"

namespace flowsched {
namespace {

// (time, seq, payload) min-heap: the semantics CalendarQueue promises.
class ReferenceQueue {
 public:
  void push(double time, int payload) {
    heap_.emplace(time, seq_++, payload);
  }
  bool empty() const { return heap_.empty(); }
  double top_time() const { return std::get<0>(heap_.top()); }
  int pop() {
    const int payload = std::get<2>(heap_.top());
    heap_.pop();
    return payload;
  }

 private:
  using Entry = std::tuple<double, long long, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  long long seq_ = 0;
};

// Interleaved pushes and pops, mirrored into both queues; every pop must
// agree on time and payload. `max_buckets` is tiny so the run exercises
// ring growth, the growth-time overflow drain, wrap-time drains, and the
// beyond-horizon overflow heap constantly.
void stress(std::uint64_t seed, double width, std::size_t buckets,
            std::size_t max_buckets, bool allow_past) {
  CalendarQueue<int> calendar(width, buckets, max_buckets);
  ReferenceQueue reference;
  Rng rng(seed);
  double watermark = 0;  // last popped time; past-due pushes go below it
  int next_payload = 0;
  for (int op = 0; op < 20000; ++op) {
    const bool push = calendar.empty() || rng.uniform() < 0.55;
    if (push) {
      double t;
      const double r = rng.uniform();
      if (allow_past && r < 0.05) {
        t = watermark * rng.uniform();  // past-due: before the last pop
      } else if (r < 0.55) {
        t = watermark + rng.uniform(0.0, 2.0);  // near horizon
      } else {
        t = watermark + rng.uniform(0.0, 400.0);  // far overflow
      }
      // Quantize half the pushes onto the dyadic grid so (time, seq)
      // tie-breaks are actually exercised.
      if (rng.uniform() < 0.5) t = std::floor(t * 8.0) / 8.0;
      calendar.push(t, next_payload);
      reference.push(t, next_payload);
      ++next_payload;
    } else {
      ASSERT_EQ(calendar.top_time(), reference.top_time()) << "op " << op;
      watermark = reference.top_time();
      ASSERT_EQ(calendar.pop(), reference.pop()) << "op " << op;
    }
    ASSERT_EQ(calendar.empty(), reference.empty());
  }
  while (!reference.empty()) {
    ASSERT_EQ(calendar.top_time(), reference.top_time());
    ASSERT_EQ(calendar.pop(), reference.pop());
  }
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(calendar.size(), 0u);
}

TEST(Calendar, MatchesHeapDefaultGeometry) { stress(1, 0.125, 1024, 65536, false); }

TEST(Calendar, MatchesHeapTinyRingForcesOverflow) {
  stress(2, 0.125, 4, 16, false);
}

TEST(Calendar, MatchesHeapWithPastDuePushes) { stress(3, 0.125, 8, 64, true); }

TEST(Calendar, MatchesHeapCoarseBuckets) { stress(4, 4.0, 4, 32, true); }

TEST(Calendar, MatchesHeapManySeeds) {
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    stress(seed, 0.125, 16, 256, true);
  }
}

// pop_due(t) removes exactly what `top_time() <= t ? pop()` removes, and
// leaves the queue alone otherwise. Cutoffs fall below, on and above the
// head, often on the dyadic grid the pushes share.
TEST(Calendar, PopDueMatchesTopThenPop) {
  CalendarQueue<int> calendar(0.125, 8, 64);
  ReferenceQueue reference;
  Rng rng(21);
  double watermark = 0;
  int next_payload = 0;
  int popped = 0;
  for (int op = 0; op < 20000; ++op) {
    if (reference.empty() || rng.uniform() < 0.5) {
      double t = watermark + rng.uniform(0.0, rng.uniform() < 0.9 ? 2.0 : 40.0);
      if (rng.uniform() < 0.5) t = std::floor(t * 8.0) / 8.0;
      calendar.push(t, next_payload);
      reference.push(t, next_payload);
      ++next_payload;
      continue;
    }
    const double cutoff =
        std::floor((reference.top_time() + rng.uniform(-0.5, 0.5)) * 8.0) / 8.0;
    int payload = -1;
    const bool due = reference.top_time() <= cutoff;
    ASSERT_EQ(calendar.pop_due(cutoff, payload), due) << "op " << op;
    if (due) {
      watermark = reference.top_time();
      ASSERT_EQ(payload, reference.pop()) << "op " << op;
      ++popped;
    }
    ASSERT_EQ(calendar.size(), static_cast<std::size_t>(next_payload - popped));
  }
  int payload = -1;
  while (!reference.empty()) {
    ASSERT_TRUE(calendar.pop_due(reference.top_time(), payload));
    ASSERT_EQ(payload, reference.pop());
  }
  EXPECT_FALSE(calendar.pop_due(1e300, payload));
}

TEST(Calendar, FifoAmongEqualTimes) {
  CalendarQueue<int> q;
  for (int i = 0; i < 100; ++i) q.push(1.0, i);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(q.top_time(), 1.0);
    EXPECT_EQ(q.pop(), i);
  }
}

TEST(Calendar, RejectsNonFiniteTimes) {
  CalendarQueue<int> q;
  EXPECT_THROW(q.push(std::numeric_limits<double>::infinity(), 0),
               std::invalid_argument);
  EXPECT_THROW(q.push(std::nan(""), 0), std::invalid_argument);
}

TEST(Calendar, PopOnEmptyThrows) {
  CalendarQueue<int> q;
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW(q.top_time(), std::logic_error);
}

TEST(Calendar, MemoryBytesIsBoundedByGeometry) {
  CalendarQueue<int> q(0.125, 8, 64);
  // Churn far more events through than the ring holds: memory must track
  // live entries + geometry, not push count.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      q.push(round * 10.0 + i * 0.25, i);
    }
    while (!q.empty()) q.pop();
  }
  EXPECT_LT(q.memory_bytes(), 1u << 20);
}

// A burst fills a few buckets far past their usual size. Once it drains,
// each bucket keeps at most a small floor of entry capacity instead of the
// burst's, so the footprint returns to about the idle queue's.
TEST(Calendar, DrainedBurstReleasesBucketStorage) {
  CalendarQueue<int> q(0.125, 16);
  const std::size_t idle = q.memory_bytes();
  for (int i = 0; i < 4096; ++i) q.push(0.125 * (i % 4), i);
  const std::size_t burst = q.memory_bytes();
  while (!q.empty()) q.pop();
  // 16 buckets, each keeping at most eight entries of at most 32 B.
  const std::size_t floor = 16 * 8 * 32;
  EXPECT_GT(burst, idle + 16 * floor);
  EXPECT_LE(q.memory_bytes(), idle + floor);
  // The kept capacity is reused: a second burst pops in the same order.
  for (int i = 0; i < 64; ++i) q.push(0.125 * (i % 4), i);
  for (int b = 0; b < 4; ++b) {
    for (int i = b; i < 64; i += 4) ASSERT_EQ(q.pop(), i);
  }
}

}  // namespace
}  // namespace flowsched
