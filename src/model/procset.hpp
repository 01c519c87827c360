// Processing sets (eligibility constraints).
//
// A task T_i may only run on a subset M_i of the machines (Section 3 of the
// paper). Machine indices are 0-based internally; rendering uses the paper's
// 1-based M_1..M_m convention.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace flowsched {

/// \brief An immutable set of eligible machine indices, stored sorted and
/// unique.
///
/// The members and their hash live in one immutable, reference-counted
/// block that every copy shares: copying a set (into a Task, a dispatcher's
/// probe, the auditor's record) is a count increment, never a member copy.
/// The count is atomic, so sets may be copied and destroyed from several
/// threads at once (the replicate runner, the sharded engine's workers).
/// The empty set owns no block.
class ProcSet {
 public:
  /// Empty set. Invalid on a task; useful as a "not yet set" placeholder.
  ProcSet() = default;
  ProcSet(const ProcSet& other) noexcept : rep_(other.rep_) { retain(); }
  ProcSet(ProcSet&& other) noexcept : rep_(other.rep_) { other.rep_ = nullptr; }
  ProcSet& operator=(const ProcSet& other) noexcept {
    Rep* const rep = other.rep_;  // read first: `other` may be *this
    other.retain();
    release();
    rep_ = rep;
    return *this;
  }
  ProcSet& operator=(ProcSet&& other) noexcept {
    if (this != &other) {
      release();
      rep_ = other.rep_;
      other.rep_ = nullptr;
    }
    return *this;
  }
  ~ProcSet() { release(); }

  /// From arbitrary machine indices; sorts and deduplicates. Negative
  /// indices throw std::invalid_argument.
  explicit ProcSet(std::vector<int> machines);

  /// All machines {0, ..., m-1}.
  static ProcSet all(int m);

  /// The singleton {j}.
  static ProcSet single(int j);

  /// Contiguous interval {lo, ..., hi} (inclusive); requires lo <= hi.
  static ProcSet interval(int lo, int hi);

  /// The ring interval I_k(u) of Section 7.2 (overlapping strategy): the k
  /// machines {u, u+1, ..., u+k-1} taken modulo m. Requires 1 <= k <= m.
  static ProcSet ring_interval(int start, int k, int m);

  const std::vector<int>& machines() const {
    return rep_ != nullptr ? rep_->machines : kNoMachines;
  }
  int size() const { return static_cast<int>(machines().size()); }
  bool empty() const { return rep_ == nullptr; }

  bool contains(int j) const;
  bool is_subset_of(const ProcSet& other) const;
  bool intersects(const ProcSet& other) const;

  /// True when all indices lie in [0, m).
  bool within(int m) const;

  /// True when the members form one contiguous run of indices.
  bool is_contiguous() const;

  /// Paper definition of an interval set on m machines: either the members
  /// are contiguous, or the complement is (the wrapped form
  /// {j <= a or j >= b}).
  bool is_interval(int m) const;

  /// Smallest / largest member. Throws std::logic_error when empty.
  int min() const;
  int max() const;

  friend bool operator==(const ProcSet& a, const ProcSet& b) {
    return a.rep_ == b.rep_ ||
           (a.hash() == b.hash() && a.machines() == b.machines());
  }

  /// 64-bit hash of the member list, computed once at construction so
  /// hash-keyed dispatch state (e.g. RoundRobinDispatcher) costs O(1) per
  /// lookup instead of rehashing the set on every dispatch.
  std::uint64_t hash() const {
    return rep_ != nullptr ? rep_->hash : kEmptyHash;
  }

  /// The hash() of the set whose members are `machines`, which must be
  /// sorted and unique: matches a member list against existing sets
  /// without building one.
  static std::uint64_t hash_of(const std::vector<int>& machines);

  /// Hints the cache to load the shared block (count, hash and member
  /// vector header), which a copy writes and a dispatch reads. No effect on
  /// any result; a no-op on the empty set.
  void prefetch() const {
    if (rep_ != nullptr) __builtin_prefetch(rep_);
  }

  /// 1-based rendering, e.g. "{M2,M3,M4}".
  std::string str() const;

 private:
  // The shared block. Never mutated after construction except `refs`.
  struct Rep {
    std::atomic<std::size_t> refs;  // 64-bit: a handle per copy never wraps it
    std::uint64_t hash;
    std::vector<int> machines;  // sorted, unique, non-empty
  };

  // Equals hash_of({}), so the empty set hashes as a member list of length
  // zero would.
  static constexpr std::uint64_t kEmptyHash = 0x9E3779B97F4A7C15ULL;
  static const std::vector<int> kNoMachines;

  void retain() const noexcept {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void release() noexcept {
    // acq_rel: the last owner must see every other owner's reads finished
    // before it frees the block.
    if (rep_ != nullptr &&
        rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete rep_;
    }
    rep_ = nullptr;
  }

  Rep* rep_ = nullptr;  // null iff the set is empty
};

/// Hasher for unordered containers keyed on ProcSet; reads the cached hash.
struct ProcSetHash {
  std::size_t operator()(const ProcSet& s) const {
    return static_cast<std::size_t>(s.hash());
  }
};

}  // namespace flowsched
