// Shared vocabulary of the LP layer: relations, solver statuses, solutions,
// and the sparse constraint-row representation the solver consumes.
//
// LP (15) has k+1 nonzeros per conservation row and k per capacity row, so
// rows are stored as (var, coeff) term lists — building the m-machine
// program is O(mk) memory instead of the O(m^2 k) a dense row per
// constraint costs. The tableau (lp/tableau.hpp) densifies on entry.
#pragma once

#include <vector>

namespace flowsched {

enum class Relation { kLe, kEq, kGe };
enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterLimit };

template <typename Scalar>
struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  Scalar objective{};
  std::vector<Scalar> x;  ///< Structural variable values (optimal only).
};

/// One `coeff * x[var]` term of a sparse constraint row.
template <typename Scalar>
struct LpTerm {
  int var;
  Scalar coeff;
};

/// One constraint `sum(terms) REL rhs`, terms sorted by var and unique.
template <typename Scalar>
struct LpRow {
  std::vector<LpTerm<Scalar>> terms;
  Relation rel = Relation::kLe;
  Scalar rhs{};
};

namespace detail {

/// Feasibility/optimality tolerance per scalar type: exact types use 0.
template <typename Scalar>
struct LpTol {
  static Scalar value() { return Scalar(0); }
};

template <>
struct LpTol<double> {
  static double value() { return 1e-9; }
};

}  // namespace detail

}  // namespace flowsched
