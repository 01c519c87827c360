// Dense two-phase primal tableau simplex — the reference oracle.
//
// Explicit artificial variables, Bland's rule (smallest eligible index)
// unconditionally, and an entering scan that recomputes every reduced cost
// from the tableau. That makes it O(rows*cols) per candidate column — far
// too slow past m ~ 100 on LP (15) — but also simple enough to trust, so it
// is the oracle the max-flow LP (15) solver is checked against;
// tests/test_simplex.cpp asserts its double and Rational instantiations
// agree on randomized programs to 1e-7 relative.
//
// Solves   maximize c^T x   subject to   A x {<=,=,>=} b,   x >= 0.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/lp_types.hpp"

namespace flowsched {
namespace detail {

// Classic dense tableau with explicit artificial variables.
template <typename Scalar>
class DenseTableau {
 public:
  DenseTableau(const std::vector<LpRow<Scalar>>& lp_rows,
               const std::vector<Scalar>& objective)
      : n_(static_cast<int>(objective.size())) {
    const Scalar zero(0);
    // Column layout: [structural | slack/surplus | artificial | rhs].
    // First pass: count slack and artificial columns.
    int slack_count = 0;
    int art_count = 0;
    for (const auto& row : lp_rows) {
      const bool flip = row.rhs < zero;
      const Relation rel = flip ? flipped(row.rel) : row.rel;
      if (rel != Relation::kEq) ++slack_count;
      if (rel != Relation::kLe) ++art_count;
    }
    slack0_ = n_;
    art0_ = n_ + slack_count;
    cols_ = art0_ + art_count;

    int next_slack = slack0_;
    int next_art = art0_;
    for (const auto& row : lp_rows) {
      const bool flip = row.rhs < zero;
      const Relation rel = flip ? flipped(row.rel) : row.rel;
      std::vector<Scalar> t(static_cast<std::size_t>(cols_) + 1, zero);
      for (const auto& term : row.terms) {
        t[static_cast<std::size_t>(term.var)] = flip ? -term.coeff : term.coeff;
      }
      t.back() = flip ? -row.rhs : row.rhs;
      int basic;
      if (rel == Relation::kLe) {
        t[static_cast<std::size_t>(next_slack)] = Scalar(1);
        basic = next_slack++;
      } else if (rel == Relation::kGe) {
        t[static_cast<std::size_t>(next_slack)] = Scalar(-1);
        ++next_slack;
        t[static_cast<std::size_t>(next_art)] = Scalar(1);
        basic = next_art++;
      } else {
        t[static_cast<std::size_t>(next_art)] = Scalar(1);
        basic = next_art++;
      }
      rows_.push_back(std::move(t));
      basis_.push_back(basic);
    }
    objective_ = objective;
  }

  LpSolution<Scalar> solve(std::size_t max_iters) {
    const Scalar tol = LpTol<Scalar>::value();
    LpSolution<Scalar> sol;

    // ---- Phase 1: minimize the sum of artificials. ----
    if (art0_ < cols_) {
      // Phase-1 reduced costs: start from cost 1 on artificials (we
      // minimize, i.e. maximize the negated sum) and price out the basis.
      std::vector<Scalar> cost(static_cast<std::size_t>(cols_), Scalar(0));
      for (int v = art0_; v < cols_; ++v) {
        cost[static_cast<std::size_t>(v)] = Scalar(-1);
      }
      if (!run(cost, max_iters, tol)) {
        sol.status = LpStatus::kIterLimit;
        return sol;
      }
      Scalar infeas(0);
      for (std::size_t r = 0; r < rows_.size(); ++r) {
        if (basis_[r] >= art0_) infeas += rows_[r].back();
      }
      if (infeas > tol) {
        sol.status = LpStatus::kInfeasible;
        return sol;
      }
      // Pivot remaining (degenerate) artificials out of the basis where
      // possible; rows with no eligible pivot are redundant constraints.
      for (std::size_t r = 0; r < rows_.size(); ++r) {
        if (basis_[r] < art0_) continue;
        for (int v = 0; v < art0_; ++v) {
          if (abs_of(rows_[r][static_cast<std::size_t>(v)]) > tol) {
            pivot(r, v);
            break;
          }
        }
      }
    }

    // ---- Phase 2: maximize the real objective. ----
    std::vector<Scalar> cost(static_cast<std::size_t>(cols_), Scalar(0));
    for (int v = 0; v < n_; ++v) {
      cost[static_cast<std::size_t>(v)] = objective_[static_cast<std::size_t>(v)];
    }
    // Forbid artificials from re-entering.
    blocked_from_ = art0_;
    if (!run(cost, max_iters, tol)) {
      // run() distinguishes unbounded from iteration limit via status_.
      sol.status = status_;
      return sol;
    }

    sol.status = LpStatus::kOptimal;
    sol.x.assign(static_cast<std::size_t>(n_), Scalar(0));
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (basis_[r] < n_) {
        sol.x[static_cast<std::size_t>(basis_[r])] = rows_[r].back();
      }
    }
    sol.objective = Scalar(0);
    for (int v = 0; v < n_; ++v) {
      sol.objective += objective_[static_cast<std::size_t>(v)] *
                       sol.x[static_cast<std::size_t>(v)];
    }
    return sol;
  }

 private:
  static Relation flipped(Relation rel) {
    if (rel == Relation::kLe) return Relation::kGe;
    if (rel == Relation::kGe) return Relation::kLe;
    return Relation::kEq;
  }

  static Scalar abs_of(const Scalar& s) { return s < Scalar(0) ? -s : s; }

  // Reduced cost of column v under `cost` given the current basis.
  Scalar reduced_cost(const std::vector<Scalar>& cost, int v) const {
    Scalar rc = cost[static_cast<std::size_t>(v)];
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      rc -= cost[static_cast<std::size_t>(basis_[r])] *
            rows_[r][static_cast<std::size_t>(v)];
    }
    return rc;
  }

  void pivot(std::size_t prow, int pcol) {
    auto& prow_vec = rows_[prow];
    const Scalar p = prow_vec[static_cast<std::size_t>(pcol)];
    for (auto& v : prow_vec) v /= p;
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (r == prow) continue;
      const Scalar f = rows_[r][static_cast<std::size_t>(pcol)];
      if (f == Scalar(0)) continue;
      for (std::size_t c = 0; c < rows_[r].size(); ++c) {
        rows_[r][c] -= f * prow_vec[c];
      }
    }
    basis_[prow] = pcol;
  }

  // Bland's-rule simplex iterations maximizing `cost`. Returns false on
  // unboundedness or iteration limit (status_ is set accordingly).
  bool run(const std::vector<Scalar>& cost, std::size_t max_iters,
           const Scalar& tol) {
    for (std::size_t iter = 0; iter < max_iters; ++iter) {
      // Entering variable: smallest index with positive reduced cost.
      int enter = -1;
      const int limit = blocked_from_ > 0 ? blocked_from_ : cols_;
      for (int v = 0; v < limit; ++v) {
        if (reduced_cost(cost, v) > tol) {
          enter = v;
          break;
        }
      }
      if (enter < 0) {
        status_ = LpStatus::kOptimal;
        return true;
      }
      // Leaving row: min ratio, ties by smallest basis index (Bland).
      std::ptrdiff_t leave = -1;
      Scalar best_ratio{};
      for (std::size_t r = 0; r < rows_.size(); ++r) {
        const Scalar a = rows_[r][static_cast<std::size_t>(enter)];
        if (a <= tol) continue;
        const Scalar ratio = rows_[r].back() / a;
        if (leave < 0 || ratio < best_ratio ||
            (ratio == best_ratio &&
             basis_[r] < basis_[static_cast<std::size_t>(leave)])) {
          leave = static_cast<std::ptrdiff_t>(r);
          best_ratio = ratio;
        }
      }
      if (leave < 0) {
        status_ = LpStatus::kUnbounded;
        return false;
      }
      pivot(static_cast<std::size_t>(leave), enter);
    }
    status_ = LpStatus::kIterLimit;
    return false;
  }

  int n_;
  int slack0_ = 0;
  int art0_ = 0;
  int cols_ = 0;
  int blocked_from_ = 0;  ///< Columns >= this may not enter (phase 2).
  LpStatus status_ = LpStatus::kOptimal;
  std::vector<std::vector<Scalar>> rows_;  ///< Tableau rows incl. rhs.
  std::vector<int> basis_;
  std::vector<Scalar> objective_;
};

}  // namespace detail
}  // namespace flowsched
