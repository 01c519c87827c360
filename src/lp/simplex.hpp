// Linear program builder and solver front-end.
//
// Solves   maximize c^T x   subject to   A x {<=,=,>=} b,   x >= 0.
//
// Constraints are stored sparse — (var, coeff) term lists — so building
// LP (15) on m machines with replication degree k costs O(mk) memory, not
// the O(m^2 k) of one dense row per constraint. solve() densifies them into
// the two-phase tableau of lp/tableau.hpp: Bland's rule throughout,
// O(rows*cols) per candidate column, simple enough to trust as the
// reference oracle (max_load_lp_tableau checks the max-flow LP (15)
// solver against it).
//
// Templated on the scalar type:
//   * double   — tolerance 1e-9 on reduced costs and ratios.
//   * Rational — exact arithmetic (util/rational.hpp); tolerance zero.
//     Used to certify the double solutions on small programs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lp/lp_types.hpp"
#include "lp/tableau.hpp"
#include "util/rational.hpp"

namespace flowsched {

/// Linear program builder + solver. All variables are non-negative.
template <typename Scalar>
class LpProblem {
 public:
  /// Adds a variable with objective coefficient `c`; returns its index.
  int add_var(Scalar c = Scalar(0)) {
    objective_.push_back(c);
    return static_cast<int>(objective_.size()) - 1;
  }

  /// Adds sum(coeff * x[var]) REL rhs; returns the constraint's row index.
  /// Terms may repeat a variable (they are accumulated) and arrive in any
  /// order; the stored row is sorted by variable and unique. Variables must
  /// already exist.
  int add_constraint(const std::vector<std::pair<int, Scalar>>& terms,
                     Relation rel, Scalar rhs) {
    LpRow<Scalar> row;
    row.terms.reserve(terms.size());
    for (const auto& [var, coeff] : terms) {
      if (var < 0 || var >= num_vars()) {
        throw std::out_of_range("LpProblem::add_constraint: bad variable");
      }
      auto it = std::lower_bound(
          row.terms.begin(), row.terms.end(), var,
          [](const LpTerm<Scalar>& t, int v) { return t.var < v; });
      if (it != row.terms.end() && it->var == var) {
        it->coeff += coeff;
      } else {
        row.terms.insert(it, LpTerm<Scalar>{var, coeff});
      }
    }
    row.rel = rel;
    row.rhs = rhs;
    rows_.push_back(std::move(row));
    return static_cast<int>(rows_.size()) - 1;
  }

  int num_vars() const { return static_cast<int>(objective_.size()); }
  int num_constraints() const { return static_cast<int>(rows_.size()); }

  const std::vector<LpRow<Scalar>>& rows() const { return rows_; }
  const std::vector<Scalar>& objective() const { return objective_; }

  /// Dense two-phase tableau with unconditional Bland's rule; reports
  /// kIterLimit after `max_iters` pivots.
  LpSolution<Scalar> solve(std::size_t max_iters = 100000) const {
    detail::DenseTableau<Scalar> solver(rows_, objective_);
    return solver.solve(max_iters);
  }

 private:
  std::vector<Scalar> objective_;
  std::vector<LpRow<Scalar>> rows_;
};

using LpProblemD = LpProblem<double>;
using LpProblemQ = LpProblem<Rational>;

}  // namespace flowsched
