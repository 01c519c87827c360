#include "model/structure.hpp"

#include <algorithm>
#include <vector>

namespace flowsched {
namespace {

// The predicates are pairwise properties of *distinct* sets; instances reuse
// the same few sets across thousands of tasks (one per key/partition), so
// deduplicate before the O(d^2) pair scan.
std::vector<ProcSet> distinct(std::span<const ProcSet> sets) {
  std::vector<ProcSet> d(sets.begin(), sets.end());
  std::sort(d.begin(), d.end(), [](const ProcSet& a, const ProcSet& b) {
    return a.machines() < b.machines();
  });
  d.erase(std::unique(d.begin(), d.end()), d.end());
  return d;
}

}  // namespace

bool is_disjoint_family(std::span<const ProcSet> sets) {
  const auto d = distinct(sets);
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (std::size_t j = i + 1; j < d.size(); ++j) {
      if (d[i].intersects(d[j])) return false;  // distinct => not equal
    }
  }
  return true;
}

bool is_inclusive_family(std::span<const ProcSet> sets) {
  const auto d = distinct(sets);
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (std::size_t j = i + 1; j < d.size(); ++j) {
      if (!d[i].is_subset_of(d[j]) && !d[j].is_subset_of(d[i])) return false;
    }
  }
  return true;
}

bool is_nested_family(std::span<const ProcSet> sets) {
  const auto d = distinct(sets);
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (std::size_t j = i + 1; j < d.size(); ++j) {
      if (!d[i].is_subset_of(d[j]) && !d[j].is_subset_of(d[i]) &&
          d[i].intersects(d[j])) {
        return false;
      }
    }
  }
  return true;
}

bool is_interval_family(std::span<const ProcSet> sets, int m) {
  const auto d = distinct(sets);
  return std::all_of(d.begin(), d.end(),
                     [m](const ProcSet& s) { return s.is_interval(m); });
}

std::string StructureFlags::most_specific() const {
  if (disjoint && inclusive) return "disjoint+inclusive";
  if (disjoint) return "disjoint";
  if (inclusive) return "inclusive";
  if (nested) return "nested";
  if (interval) return "interval";
  return "general";
}

StructureFlags classify_family(std::span<const ProcSet> sets, int m) {
  StructureFlags flags;
  flags.disjoint = is_disjoint_family(sets);
  flags.inclusive = is_inclusive_family(sets);
  flags.nested = flags.disjoint || flags.inclusive || is_nested_family(sets);
  flags.interval = is_interval_family(sets, m);
  return flags;
}

}  // namespace flowsched
