// Calendar (bucket) event queue on a dyadic time grid.
//
// The streaming engine and the fault-retry path both need a monotone event
// queue: pop the earliest (time, insertion-seq) entry, where pops never go
// back in time. A binary heap (std::priority_queue) costs O(log n) per
// operation and a pointer-chasing sift through cold cache lines; a calendar
// queue (Brown 1988) exploits the monotone access pattern by hashing events
// into fixed-width time buckets — O(1) amortized push/pop for the
// short-horizon distributions a serving simulation produces (an event lands
// within a few service times of "now").
//
// Determinism contract: pop order is EXACTLY ascending (time, seq) with seq
// assigned at push — bit-identical to
// std::priority_queue<Entry, ..., std::greater> over the same push/pop
// interleaving (asserted by tests/test_calendar.cpp against the heap).
// Within a bucket, entries are sorted lazily the first time the cursor
// enters the bucket; a push into the already-open current bucket does an
// ordered insert. Entries farther than the ring horizon go to an overflow
// heap (the cold path) and migrate into the ring as the cursor advances.
//
// The bucket width defaults to the dyadic 2^-3 grid: service times in the
// simulator are O(1), so a bucket holds O(lambda / 8) events and the ring
// spans the whole in-flight horizon in a few hundred buckets.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <vector>

namespace flowsched {

/// \brief Monotone O(1)-amortized event queue: pops in exact ascending
/// (time, insertion-seq) order, bit-identical to a binary heap (see the
/// file comment for the determinism contract and design rationale).
/// \tparam T payload type carried with each event; moved in and out.
template <typename T>
class CalendarQueue {
 public:
  /// \param bucket_width bucket span in time units; must be positive
  ///        (defaults to the simulator's dyadic 2^-3 grid).
  /// \param buckets initial ring size, rounded up to a power of two — the
  ///        ring grows by doubling up to `max_buckets` before spilling to
  ///        the overflow heap.
  /// \param max_buckets hard ring-size cap; entries beyond the capped
  ///        horizon wait in the overflow heap (the cold path).
  /// \param kept_entries entry capacity a drained bucket keeps for its
  ///        next use; 0 frees it, so the footprint follows the live entries.
  explicit CalendarQueue(double bucket_width = 0.125,
                         std::size_t buckets = 1024,
                         std::size_t max_buckets = std::size_t{1} << 16,
                         std::size_t kept_entries = 8)
      : width_(bucket_width),
        max_buckets_(max_buckets),
        kept_entries_(kept_entries) {
    if (!(bucket_width > 0)) {
      throw std::invalid_argument("CalendarQueue: bucket_width <= 0");
    }
    std::size_t nb = 1;
    while (nb < buckets) nb <<= 1;
    ring_.resize(std::min(nb, max_buckets_));
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// \return the earliest entry's time. Requires !empty().
  double top_time() {
    locate();
    return head_entry().time;
  }

  /// \brief Enqueues `payload` at `time`.
  /// \param time event time; must be finite. Times before the open bucket
  ///        are legal and pop with it (pops never go back in time).
  /// \param payload value returned by the matching pop().
  void push(double time, T payload) {
    if (!std::isfinite(time)) {
      throw std::invalid_argument("CalendarQueue::push: non-finite time");
    }
    Entry e{time, seq_++, std::move(payload)};
    ++size_;
    std::int64_t b = bucket_of(time);
    if (b < cursor_) b = cursor_;  // past-due entries pop from the open bucket
    if (b >= cursor_ + static_cast<std::int64_t>(ring_.size())) {
      if (!grow_to(b)) {
        overflow_.push(std::move(e));
        return;
      }
      // The widened horizon may cover queued overflow entries; migrate them
      // now so the cursor never sweeps past a bucket they belong to.
      drain_overflow();
    }
    Bucket& bucket = ring_[ring_index(b)];
    if (!bucket.sorted) {
      bucket.entries.push_back(std::move(e));
      return;
    }
    // The cursor already opened this bucket: keep it ordered past the head.
    auto it = std::lower_bound(bucket.entries.begin() +
                                   static_cast<std::ptrdiff_t>(bucket.head),
                               bucket.entries.end(), e);
    bucket.entries.insert(it, std::move(e));
  }

  /// \brief Removes the earliest (time, seq) entry. Requires !empty().
  /// \return the removed entry's payload.
  T pop() {
    locate();
    Bucket& bucket = ring_[ring_index(cursor_)];
    T payload = std::move(bucket.entries[bucket.head].payload);
    consume(bucket);
    return payload;
  }

  /// \brief Removes the earliest entry if its time is <= `time`: the same
  /// entry top_time() then pop() would remove, found with one bucket scan
  /// instead of two.
  /// \return whether an entry was removed into `payload`.
  bool pop_due(double time, T& payload) {
    if (size_ == 0) return false;
    locate();
    Bucket& bucket = ring_[ring_index(cursor_)];
    if (!(bucket.entries[bucket.head].time <= time)) return false;
    payload = std::move(bucket.entries[bucket.head].payload);
    consume(bucket);
    return true;
  }

  /// \return live footprint estimate in bytes (ring headers + entries +
  /// overflow), the quantity the streaming memory contract is stated in.
  std::size_t memory_bytes() const {
    std::size_t bytes = ring_.size() * sizeof(Bucket);
    for (const Bucket& b : ring_) bytes += b.entries.capacity() * sizeof(Entry);
    bytes += overflow_.size() * sizeof(Entry);
    bytes += drain_scratch_.capacity() * sizeof(Entry);
    return bytes;
  }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    T payload;
    bool operator<(const Entry& o) const {
      if (time != o.time) return time < o.time;
      return seq < o.seq;
    }
    bool operator>(const Entry& o) const { return o < *this; }
  };
  struct Bucket {
    std::vector<Entry> entries;
    std::size_t head = 0;  // consumed prefix once sorted
    bool sorted = false;
  };

  std::int64_t bucket_of(double time) const {
    return static_cast<std::int64_t>(std::floor(time / width_));
  }
  std::size_t ring_index(std::int64_t b) const {
    return static_cast<std::size_t>(b) & (ring_.size() - 1);
  }

  const Entry& head_entry() const {
    const Bucket& bucket = ring_[ring_index(cursor_)];
    return bucket.entries[bucket.head];
  }

  // Drops the open bucket's head entry, whose payload was moved out. A
  // drained bucket keeps at most kept_entries_ of capacity: the ring reuses
  // every bucket once per period, so storage a burst grew would otherwise
  // stay allocated for the rest of the run. The default of eight suits the
  // engine's front queue, whose buckets hold about eight fronts
  // (StreamingEngine::refine_fronts) and are refilled every period.
  void consume(Bucket& bucket) {
    ++bucket.head;
    --size_;
    if (bucket.head == bucket.entries.size()) {
      if (bucket.entries.capacity() > kept_entries_) {
        std::vector<Entry> kept;
        kept.reserve(kept_entries_);
        bucket.entries.swap(kept);
      } else {
        bucket.entries.clear();
      }
      bucket.head = 0;
      bucket.sorted = false;
    }
  }

  // Doubles the ring until bucket b fits (rebucketing live entries), or
  // returns false once max_buckets_ is reached — the caller spills to the
  // overflow heap.
  bool grow_to(std::int64_t b) {
    std::size_t nb = ring_.size();
    while (b >= cursor_ + static_cast<std::int64_t>(nb)) {
      if (nb >= max_buckets_) return false;
      nb <<= 1;
    }
    std::vector<Bucket> grown(nb);
    // Count-then-reserve: the migration loop push_back()s into cold target
    // buckets, and with tens of thousands of live entries per grow the
    // incremental reallocation churn dominated the rebucketing. Fresh
    // buckets have head == 0, so head doubles as the per-target counter
    // for the sizing pass (reset before the move pass).
    for (const Bucket& old : ring_) {
      for (std::size_t i = old.head; i < old.entries.size(); ++i) {
        std::int64_t eb = bucket_of(old.entries[i].time);
        if (eb < cursor_) eb = cursor_;
        ++grown[static_cast<std::size_t>(eb) & (nb - 1)].head;
      }
    }
    for (Bucket& g : grown) {
      g.entries.reserve(g.head);
      g.head = 0;
    }
    for (Bucket& old : ring_) {
      for (std::size_t i = old.head; i < old.entries.size(); ++i) {
        Entry& e = old.entries[i];
        std::int64_t eb = bucket_of(e.time);
        if (eb < cursor_) eb = cursor_;
        grown[static_cast<std::size_t>(eb) & (nb - 1)].entries.push_back(
            std::move(e));
      }
    }
    ring_ = std::move(grown);
    return true;
  }

  // Positions cursor_ on the bucket holding the global minimum and sorts it.
  // Requires size_ > 0.
  void locate() {
    if (size_ == 0) {
      throw std::logic_error("CalendarQueue: top/pop on empty queue");
    }
    if (size_ == overflow_.size()) {
      // Ring drained: jump the cursor to the overflow frontier and migrate
      // everything now within the ring horizon.
      cursor_ = std::max(cursor_, bucket_of(overflow_.top().time));
      drain_overflow();
    }
    for (;;) {
      Bucket& bucket = ring_[ring_index(cursor_)];
      if (bucket.head < bucket.entries.size()) break;
      ++cursor_;
      if (ring_index(cursor_) == 0) {
        // Wrapped a full ring period: overflow entries may now be in range.
        drain_overflow();
      }
      if (size_ == overflow_.size()) {
        cursor_ = std::max(cursor_, bucket_of(overflow_.top().time));
        drain_overflow();
      }
    }
    Bucket& bucket = ring_[ring_index(cursor_)];
    if (!bucket.sorted) {
      std::sort(bucket.entries.begin(), bucket.entries.end());
      bucket.sorted = true;
      bucket.head = 0;
    }
  }

  void drain_overflow() {
    const std::int64_t horizon = cursor_ + static_cast<std::int64_t>(ring_.size());
    if (overflow_.empty() || bucket_of(overflow_.top().time) >= horizon) return;
    // Pop the in-horizon prefix into scratch first, then insert it one
    // bucket-run at a time with the target reserved up front: inserting
    // straight off the heap grew cold buckets one push_back at a time, and
    // that reallocation churn dominated the drain at high backlog (guarded
    // by micro_sched's BM_CalendarOverflowDrain). The heap pops in ascending
    // (time, seq) and bucket_of is monotone in time, so scratch arrives
    // grouped by target bucket (cursor-clamped entries sort first).
    drain_scratch_.clear();
    while (!overflow_.empty() && bucket_of(overflow_.top().time) < horizon) {
      drain_scratch_.push_back(overflow_.top());
      overflow_.pop();
    }
    std::size_t i = 0;
    while (i < drain_scratch_.size()) {
      std::int64_t b = bucket_of(drain_scratch_[i].time);
      if (b < cursor_) b = cursor_;
      std::size_t j = i + 1;
      for (; j < drain_scratch_.size(); ++j) {
        std::int64_t bj = bucket_of(drain_scratch_[j].time);
        if (bj < cursor_) bj = cursor_;
        if (bj != b) break;
      }
      Bucket& bucket = ring_[ring_index(b)];
      const std::size_t need = bucket.entries.size() + (j - i);
      if (need > bucket.entries.capacity()) {
        // Geometric floor keeps repeated exact-size reserves across drains
        // from degrading push_back back to linear copying.
        bucket.entries.reserve(std::max(need, bucket.entries.capacity() * 2));
      }
      for (; i < j; ++i) {
        Entry& e = drain_scratch_[i];
        if (!bucket.sorted) {
          bucket.entries.push_back(std::move(e));
        } else {
          auto it = std::lower_bound(
              bucket.entries.begin() + static_cast<std::ptrdiff_t>(bucket.head),
              bucket.entries.end(), e);
          bucket.entries.insert(it, std::move(e));
        }
      }
    }
  }

  double width_;
  std::size_t max_buckets_;
  std::size_t kept_entries_;
  std::vector<Bucket> ring_;
  std::int64_t cursor_ = 0;  // absolute bucket index of the open bucket
  std::uint64_t seq_ = 0;
  std::size_t size_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> overflow_;
  std::vector<Entry> drain_scratch_;  // reused by drain_overflow()
};

}  // namespace flowsched
