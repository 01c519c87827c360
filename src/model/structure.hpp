// Classification of processing-set families into the structures of the
// paper's Figure 1 reduction graph:
//
//     disjoint ──▶ nested ──▶ interval ──▶ general
//     inclusive ──▶ nested
//
// "A ──▶ B" means every A-structured family is also B-structured (A is a
// special case of B). Interval containment holds after a suitable machine
// renumbering; the predicates here test the structure on the given numbering
// (which is what the scheduling algorithms see), plus `is_nested_family`
// etc. test the purely set-theoretic definitions that are
// numbering-independent.
#pragma once

#include <span>
#include <string>

#include "model/procset.hpp"

namespace flowsched {

/// Disjoint: every pair of sets is either equal or non-intersecting.
bool is_disjoint_family(std::span<const ProcSet> sets);

/// Inclusive: every pair is comparable by inclusion.
bool is_inclusive_family(std::span<const ProcSet> sets);

/// Nested: every pair is comparable by inclusion or non-intersecting.
bool is_nested_family(std::span<const ProcSet> sets);

/// Interval on m machines: every set is an interval in the paper's sense
/// (contiguous, or contiguous complement for the wrapped form).
bool is_interval_family(std::span<const ProcSet> sets, int m);

/// Structure flags of a family, most-specific kind included.
struct StructureFlags {
  bool disjoint = false;
  bool inclusive = false;
  bool nested = false;
  bool interval = false;

  /// Human-readable most specific label, e.g. "disjoint", "nested",
  /// "interval", or "general".
  std::string most_specific() const;
};

StructureFlags classify_family(std::span<const ProcSet> sets, int m);

}  // namespace flowsched
