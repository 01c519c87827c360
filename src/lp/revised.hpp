// Sparse revised simplex with a product-form basis inverse.
//
// The solver the LP layer actually runs (LpProblem::solve). Design, in the
// order work happens:
//
//  * The constraint matrix is stored column-major sparse (structural,
//    slack/surplus, artificial blocks — the same column layout as the dense
//    tableau oracle). LP (15) columns have <= 2 nonzeros, so an iteration
//    touches O(nnz) data instead of the tableau's O(rows * cols).
//  * The basis inverse is a product of eta matrices (the "eta file"): a
//    pivot appends one sparse eta; FTRAN/BTRAN apply the file forwards /
//    backwards. Every kRefactorEvery pivots — or when a pivot looks
//    numerically bad — the file is rebuilt from scratch, which also
//    recomputes the basic values and caps drift. The rebuild
//    triangularizes by row singletons first (zero fill on the
//    forest-shaped bases LP (15) produces; see refactor()), so it costs
//    ~O(nnz(B)) and a short refactor period keeps BTRAN/FTRAN near
//    O(nnz(B)) too.
//  * Pricing keeps the dual vector y = c_B B^{-1} (one BTRAN per
//    iteration, eta-file-capped) and scans candidate columns in a rotating
//    partial-pricing window, taking the most positive reduced cost seen
//    (Dantzig within the window). Each candidate costs O(nnz(column)).
//  * After kBlandStreak consecutive degenerate pivots the solver switches
//    to Bland's rule (smallest eligible index, entering and leaving) until
//    a pivot makes progress again — the classic cycling guard, engaged
//    only when needed.
//  * Crash start: solve() can be handed a (partial) starting basis. It is
//    factorized against the data; if it is primal feasible (and its
//    artificials sit at zero) phase 2 starts from it directly, otherwise
//    the solver silently takes the all-logical basis. See docs/lp.md.
//  * The Scalar template covers double (tolerance 1e-9, eta drop tolerance
//    1e-13) and Rational (all tolerances exactly zero), so LpProblemQ
//    certification runs the same code path exactly.
//
// Phase 1 uses the standard artificial-variable objective but skips its
// iteration loop entirely when every artificial starts at value zero (true
// for LP (15), whose equality rows have rhs 0). Leftover zero-valued
// artificials simply stay basic: the ratio test's forced-leave rule evicts
// one the moment an entering column touches its row (see ratio_test()), so
// they can never move off zero and no up-front expulsion pass is needed —
// rows no entering column ever touches are redundant and keep their
// artificial at zero harmlessly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include "lp/lp_types.hpp"

namespace flowsched {
namespace detail {

template <typename Scalar>
class RevisedSimplex {
 public:
  RevisedSimplex(const std::vector<LpRow<Scalar>>& lp_rows,
                 const std::vector<Scalar>& objective)
      : n_(static_cast<int>(objective.size())),
        nrows_(static_cast<int>(lp_rows.size())),
        obj_(objective) {
    const Scalar zero(0);
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

    // Gather the structural entries row-flipped, then transpose to CSC.
    std::vector<int> nnz_of(static_cast<std::size_t>(cols_), 0);
    for (const auto& row : lp_rows) {
      for (const auto& term : row.terms) {
        if (term.coeff != zero) ++nnz_of[static_cast<std::size_t>(term.var)];
      }
    }
    for (int j = slack0_; j < cols_; ++j) nnz_of[static_cast<std::size_t>(j)] = 1;
    col_start_.assign(static_cast<std::size_t>(cols_) + 1, 0);
    for (int j = 0; j < cols_; ++j) {
      col_start_[static_cast<std::size_t>(j) + 1] =
          col_start_[static_cast<std::size_t>(j)] + nnz_of[static_cast<std::size_t>(j)];
    }
    col_row_.assign(static_cast<std::size_t>(col_start_.back()), 0);
    col_val_.assign(static_cast<std::size_t>(col_start_.back()), zero);
    std::vector<int> fill(col_start_.begin(), col_start_.end() - 1);
    b_.reserve(static_cast<std::size_t>(nrows_));
    logical_.reserve(static_cast<std::size_t>(nrows_));
    int next_slack = slack0_;
    int next_art = art0_;
    for (int r = 0; r < nrows_; ++r) {
      const auto& row = lp_rows[static_cast<std::size_t>(r)];
      const bool flip = row.rhs < zero;
      const Relation rel = flip ? flipped(row.rel) : row.rel;
      for (const auto& term : row.terms) {
        if (term.coeff == zero) continue;
        auto& slot = fill[static_cast<std::size_t>(term.var)];
        col_row_[static_cast<std::size_t>(slot)] = r;
        col_val_[static_cast<std::size_t>(slot)] = flip ? -term.coeff : term.coeff;
        ++slot;
      }
      b_.push_back(flip ? -row.rhs : row.rhs);
      int logical;
      if (rel == Relation::kLe) {
        place_unit(fill, next_slack, r, Scalar(1));
        logical = next_slack++;
      } else if (rel == Relation::kGe) {
        place_unit(fill, next_slack, r, Scalar(-1));
        ++next_slack;
        place_unit(fill, next_art, r, Scalar(1));
        logical = next_art++;
      } else {
        place_unit(fill, next_art, r, Scalar(1));
        logical = next_art++;
      }
      logical_.push_back(logical);
    }
  }

  /// Solves the program; `crash` (may be null) is a starting basis, entries
  /// of -1 meaning "the row's logical column", used when it checks out and
  /// replaced by the all-logical basis otherwise.
  LpSolution<Scalar> solve(const std::vector<int>* crash,
                           std::size_t max_iters) {
    LpSolution<Scalar> sol = run(crash, max_iters);
    sol.iterations = max_iters - iters_left_;
    return sol;
  }

 private:
  enum class RunExit { kOptimal, kUnbounded, kIterLimit };

  LpSolution<Scalar> run(const std::vector<int>* crash, std::size_t max_iters) {
    LpSolution<Scalar> sol;
    if (crash == nullptr || !start(crash)) {
      // No usable crash basis — start from the logical basis (always
      // succeeds: it is the identity).
      start(nullptr);
    }
    iters_left_ = max_iters;

    // ---- Phase 1 (skipped when the start is already feasible). ----
    if (artificial_infeasibility() > tol_) {
      const RunExit exit = iterate(/*phase1=*/true);
      if (exit != RunExit::kOptimal) {
        // Phase 1 is bounded by construction; kUnbounded here means the
        // numerics collapsed, which the iteration-limit status reports.
        sol.status = LpStatus::kIterLimit;
        return sol;
      }
      if (artificial_infeasibility() > tol_) {
        sol.status = LpStatus::kInfeasible;
        return sol;
      }
    }
    // Leftover zero-valued artificials stay basic; the forced-leave rule
    // in ratio_test() evicts each the moment an entering column touches
    // its row, so no up-front expulsion pass is needed.

    // ---- Phase 2. ----
    const RunExit exit = iterate(/*phase1=*/false);
    if (exit != RunExit::kOptimal) {
      sol.status = exit == RunExit::kUnbounded ? LpStatus::kUnbounded
                                               : LpStatus::kIterLimit;
      return sol;
    }
    sol.status = LpStatus::kOptimal;
    sol.x.assign(static_cast<std::size_t>(n_), Scalar(0));
    for (int r = 0; r < nrows_; ++r) {
      const int j = basis_[static_cast<std::size_t>(r)];
      if (j < n_) {
        Scalar v = x_[static_cast<std::size_t>(r)];
        if (tol_ > Scalar(0) && v < Scalar(0)) v = Scalar(0);  // drift clamp
        sol.x[static_cast<std::size_t>(j)] = v;
      }
    }
    sol.objective = Scalar(0);
    for (int v = 0; v < n_; ++v) {
      sol.objective +=
          obj_[static_cast<std::size_t>(v)] * sol.x[static_cast<std::size_t>(v)];
    }
    return sol;
  }

  struct Eta {
    int row;
    Scalar pivot;
    std::vector<std::pair<int, Scalar>> others;  ///< Nonzeros off the pivot row.
  };

  static Relation flipped(Relation rel) {
    if (rel == Relation::kLe) return Relation::kGe;
    if (rel == Relation::kGe) return Relation::kLe;
    return Relation::kEq;
  }

  static Scalar abs_of(const Scalar& s) { return s < Scalar(0) ? -s : s; }

  void place_unit(std::vector<int>& fill, int col, int row, Scalar value) {
    auto& slot = fill[static_cast<std::size_t>(col)];
    col_row_[static_cast<std::size_t>(slot)] = row;
    col_val_[static_cast<std::size_t>(slot)] = value;
    ++slot;
  }

  int col_nnz(int j) const {
    return col_start_[static_cast<std::size_t>(j) + 1] -
           col_start_[static_cast<std::size_t>(j)];
  }

  /// Writes column j of the (flipped) constraint matrix into dense `out`
  /// (assumed zeroed); records touched rows for cheap re-zeroing.
  void scatter_column(int j, std::vector<Scalar>& out) const {
    for (int idx = col_start_[static_cast<std::size_t>(j)];
         idx < col_start_[static_cast<std::size_t>(j) + 1]; ++idx) {
      out[static_cast<std::size_t>(col_row_[static_cast<std::size_t>(idx)])] =
          col_val_[static_cast<std::size_t>(idx)];
    }
  }

  Scalar dot_column(int j, const std::vector<Scalar>& y) const {
    Scalar acc(0);
    for (int idx = col_start_[static_cast<std::size_t>(j)];
         idx < col_start_[static_cast<std::size_t>(j) + 1]; ++idx) {
      acc += col_val_[static_cast<std::size_t>(idx)] *
             y[static_cast<std::size_t>(col_row_[static_cast<std::size_t>(idx)])];
    }
    return acc;
  }

  /// v <- B^{-1} v: apply the eta file forwards.
  void ftran(std::vector<Scalar>& v) const {
    for (const Eta& e : etas_) {
      Scalar vr = v[static_cast<std::size_t>(e.row)];
      if (vr == Scalar(0)) continue;
      vr /= e.pivot;
      v[static_cast<std::size_t>(e.row)] = vr;
      for (const auto& [i, wi] : e.others) {
        v[static_cast<std::size_t>(i)] -= wi * vr;
      }
    }
  }

  /// y^T <- y^T B^{-1}: apply the eta file backwards.
  void btran(std::vector<Scalar>& y) const {
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      Scalar acc = y[static_cast<std::size_t>(it->row)];
      for (const auto& [i, wi] : it->others) {
        acc -= wi * y[static_cast<std::size_t>(i)];
      }
      y[static_cast<std::size_t>(it->row)] = acc / it->pivot;
    }
  }

  /// Appends the eta of pivoting (dense) column w at `row`. Entries below
  /// the drop tolerance are discarded for double; exact types keep all.
  void push_eta(const std::vector<Scalar>& w, int row) {
    Eta e;
    e.row = row;
    e.pivot = w[static_cast<std::size_t>(row)];
    for (int r = 0; r < nrows_; ++r) {
      if (r == row) continue;
      const Scalar& v = w[static_cast<std::size_t>(r)];
      if (v == Scalar(0)) continue;
      if (tol_ > Scalar(0) && abs_of(v) <= Scalar(1e-13)) continue;
      e.others.emplace_back(r, v);
    }
    // Identity etas are no-ops in FTRAN/BTRAN; refactorization emits one
    // for every still-logical basic column, so dropping them keeps the
    // rebuilt file proportional to the *non-trivial* part of the basis.
    if (e.others.empty() && e.pivot == Scalar(1)) return;
    etas_.push_back(std::move(e));
  }

  /// Installs a basis: `crash == nullptr` takes the logical
  /// slack/artificial basis; otherwise the given basis is factorized
  /// against the data. A crash entry of -1 stands for "this row's logical
  /// column" — callers can hand a *partial* basis that pins only the rows
  /// they know something about. Returns false when the crash basis is
  /// unusable (wrong shape, singular, primal infeasible, or an artificial
  /// came back at a nonzero value) — the caller then takes the logical
  /// basis.
  bool start(const std::vector<int>* crash) {
    bland_ = false;
    broken_ = false;
    degenerate_streak_ = 0;
    cursor_ = 0;
    etas_.clear();
    eta_base_ = 0;
    in_basis_.assign(static_cast<std::size_t>(cols_), 0);
    if (crash == nullptr) {
      basis_ = logical_;
      for (int j : basis_) in_basis_[static_cast<std::size_t>(j)] = 1;
      x_ = b_;
      return true;
    }
    if (static_cast<int>(crash->size()) != nrows_) return false;
    basis_ = *crash;
    for (int r = 0; r < nrows_; ++r) {
      int& j = basis_[static_cast<std::size_t>(r)];
      if (j == -1) j = logical_[static_cast<std::size_t>(r)];
      if (j < 0 || j >= cols_) return false;
      if (in_basis_[static_cast<std::size_t>(j)]) return false;  // duplicate
      in_basis_[static_cast<std::size_t>(j)] = 1;
    }
    if (!refactor(tol_ > Scalar(0) ? Scalar(1e-11) : Scalar(0))) return false;
    // Primal feasible, and artificials (redundant-row leftovers) at zero?
    const Scalar feas = crash_feas_tol();
    for (int r = 0; r < nrows_; ++r) {
      const Scalar& v = x_[static_cast<std::size_t>(r)];
      if (v < -feas) return false;
      if (basis_[static_cast<std::size_t>(r)] >= art0_ && v > feas) return false;
    }
    if (tol_ > Scalar(0)) {
      for (auto& v : x_) {
        if (v < Scalar(0)) v = Scalar(0);
      }
    }
    return true;
  }

  /// Rebuilds the eta file from scratch for the current basis and
  /// recomputes the basic values. Returns false on a basis singular up to
  /// `floor` (mid-solve callers pass 0: the basis is nonsingular by
  /// invariant, so only an exact numeric collapse can fail there).
  ///
  /// Two stages, both deterministic:
  ///  1. Row-singleton triangularization over the *sparse* basic columns:
  ///     repeatedly pivot the unique remaining column of any row only one
  ///     remaining column touches. Such a column provably has no nonzero
  ///     in an eliminated row (that row's count would not have been 1 when
  ///     it was eliminated), so its eta is the column *verbatim* — no
  ///     FTRAN, no fill. Dense columns (> kStage1MaxColNnz nonzeros, i.e.
  ///     LP (15)'s lambda column) are held out of the degree counts: a
  ///     dense column inflates every row it touches and can stall the peel
  ///     wholesale — at maximum degeneracy (uniform popularity) it left
  ///     half the basis to stage 2 and made refactorization the dominant
  ///     cost. Without them, the edge-like columns of a
  ///     transportation-shaped basis form a forest, which the peel always
  ///     consumes completely, so the rebuilt file stays proportional to
  ///     nnz(B); before it, the fill from a blind elimination order made
  ///     BTRAN/FTRAN the dominant cost at m >= 512.
  ///  2. Whatever remains (the dense columns; cycles) goes through the
  ///     general path: scatter, FTRAN against the file so far, pivot on
  ///     the largest remaining-row entry (ties to the smallest row).
  bool refactor(Scalar floor = Scalar(0)) {
    etas_.clear();
    std::vector<char> row_done(static_cast<std::size_t>(nrows_), 0);
    std::vector<char> slot_done(static_cast<std::size_t>(nrows_), 0);
    std::vector<int> new_basis(static_cast<std::size_t>(nrows_), -1);
    // Per row: how many sparse basic columns touch it (explicitly stored
    // zeros do not count), and in which slots. Dense columns sit out stage 1 entirely.
    const int dense_cap = kStage1MaxColNnz;
    const auto sparse = [&](int j) { return col_nnz(j) <= dense_cap; };
    std::vector<int> degree(static_cast<std::size_t>(nrows_), 0);
    std::vector<int> touch_start(static_cast<std::size_t>(nrows_) + 1, 0);
    for (int s = 0; s < nrows_; ++s) {
      const int j = basis_[static_cast<std::size_t>(s)];
      if (!sparse(j)) continue;
      for (int idx = col_start_[static_cast<std::size_t>(j)];
           idx < col_start_[static_cast<std::size_t>(j) + 1]; ++idx) {
        if (col_val_[static_cast<std::size_t>(idx)] == Scalar(0)) continue;
        ++degree[static_cast<std::size_t>(col_row_[static_cast<std::size_t>(idx)])];
      }
    }
    for (int r = 0; r < nrows_; ++r) {
      touch_start[static_cast<std::size_t>(r) + 1] =
          touch_start[static_cast<std::size_t>(r)] +
          degree[static_cast<std::size_t>(r)];
    }
    std::vector<int> touch(static_cast<std::size_t>(touch_start.back()), 0);
    {
      std::vector<int> fill_at(touch_start.begin(), touch_start.end() - 1);
      for (int s = 0; s < nrows_; ++s) {
        const int j = basis_[static_cast<std::size_t>(s)];
        if (!sparse(j)) continue;
        for (int idx = col_start_[static_cast<std::size_t>(j)];
             idx < col_start_[static_cast<std::size_t>(j) + 1]; ++idx) {
          if (col_val_[static_cast<std::size_t>(idx)] == Scalar(0)) continue;
          const int r = col_row_[static_cast<std::size_t>(idx)];
          touch[static_cast<std::size_t>(fill_at[static_cast<std::size_t>(r)]++)] = s;
        }
      }
    }
    std::vector<int> queue;
    queue.reserve(static_cast<std::size_t>(nrows_));
    for (int r = 0; r < nrows_; ++r) {
      if (degree[static_cast<std::size_t>(r)] == 1) queue.push_back(r);
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int r = queue[head];
      if (row_done[static_cast<std::size_t>(r)] ||
          degree[static_cast<std::size_t>(r)] != 1) {
        continue;
      }
      int slot = -1;
      for (int idx = touch_start[static_cast<std::size_t>(r)];
           idx < touch_start[static_cast<std::size_t>(r) + 1]; ++idx) {
        if (!slot_done[static_cast<std::size_t>(touch[static_cast<std::size_t>(idx)])]) {
          slot = touch[static_cast<std::size_t>(idx)];
          break;
        }
      }
      const int j = basis_[static_cast<std::size_t>(slot)];
      Eta e;
      e.row = r;
      e.pivot = Scalar(0);
      for (int idx = col_start_[static_cast<std::size_t>(j)];
           idx < col_start_[static_cast<std::size_t>(j) + 1]; ++idx) {
        if (col_val_[static_cast<std::size_t>(idx)] == Scalar(0)) continue;
        const int rr = col_row_[static_cast<std::size_t>(idx)];
        if (rr == r) {
          e.pivot = col_val_[static_cast<std::size_t>(idx)];
        } else {
          e.others.emplace_back(rr, col_val_[static_cast<std::size_t>(idx)]);
          if (!row_done[static_cast<std::size_t>(rr)] &&
              --degree[static_cast<std::size_t>(rr)] == 1) {
            queue.push_back(rr);
          }
        }
      }
      if (abs_of(e.pivot) <= floor) {
        broken_ = true;  // unusable state: eta file is partial
        return false;
      }
      if (!(e.others.empty() && e.pivot == Scalar(1))) {
        etas_.push_back(std::move(e));
      }
      row_done[static_cast<std::size_t>(r)] = 1;
      slot_done[static_cast<std::size_t>(slot)] = 1;
      new_basis[static_cast<std::size_t>(r)] = j;
    }
    // Stage 2: leftover columns through the general elimination.
    std::vector<int> residual;
    for (int s = 0; s < nrows_; ++s) {
      if (!slot_done[static_cast<std::size_t>(s)]) residual.push_back(s);
    }
    std::sort(residual.begin(), residual.end(), [&](int a, int b) {
      const int na = col_nnz(basis_[static_cast<std::size_t>(a)]);
      const int nb = col_nnz(basis_[static_cast<std::size_t>(b)]);
      if (na != nb) return na < nb;
      return basis_[static_cast<std::size_t>(a)] < basis_[static_cast<std::size_t>(b)];
    });
    std::vector<Scalar> w;
    if (!residual.empty()) w.assign(static_cast<std::size_t>(nrows_), Scalar(0));
    for (int slot : residual) {
      const int j = basis_[static_cast<std::size_t>(slot)];
      std::fill(w.begin(), w.end(), Scalar(0));
      scatter_column(j, w);
      ftran(w);
      int best = -1;
      for (int r = 0; r < nrows_; ++r) {
        if (row_done[static_cast<std::size_t>(r)]) continue;
        if (w[static_cast<std::size_t>(r)] == Scalar(0)) continue;
        if (best < 0 || abs_of(w[static_cast<std::size_t>(r)]) >
                            abs_of(w[static_cast<std::size_t>(best)])) {
          best = r;
        }
      }
      if (best < 0 || abs_of(w[static_cast<std::size_t>(best)]) <= floor) {
        broken_ = true;  // unusable state: eta file is partial
        return false;
      }
      push_eta(w, best);
      row_done[static_cast<std::size_t>(best)] = 1;
      new_basis[static_cast<std::size_t>(best)] = j;
    }
    basis_ = std::move(new_basis);
    eta_base_ = etas_.size();
    x_ = b_;
    ftran(x_);
    return true;
  }

  Scalar crash_feas_tol() const {
    return tol_ > Scalar(0) ? Scalar(1e-7) : Scalar(0);
  }

  Scalar artificial_infeasibility() const {
    Scalar total(0);
    for (int r = 0; r < nrows_; ++r) {
      if (basis_[static_cast<std::size_t>(r)] >= art0_) {
        total += x_[static_cast<std::size_t>(r)];
      }
    }
    return total;
  }

  Scalar cost_of(int j, bool phase1) const {
    if (phase1) return j >= art0_ ? Scalar(-1) : Scalar(0);
    return j < n_ ? obj_[static_cast<std::size_t>(j)] : Scalar(0);
  }

  /// y = c_B^T B^{-1} for the current basis under the phase's costs.
  void compute_duals(bool phase1, std::vector<Scalar>& y) const {
    y.assign(static_cast<std::size_t>(nrows_), Scalar(0));
    for (int r = 0; r < nrows_; ++r) {
      y[static_cast<std::size_t>(r)] =
          cost_of(basis_[static_cast<std::size_t>(r)], phase1);
    }
    btran(y);
  }

  /// Entering column, or -1 at optimality. Partial pricing: rotate a
  /// window over the non-basic columns and take the best positive reduced
  /// cost seen; Bland mode scans ascending and takes the first.
  ///
  /// Plain Dantzig within the window is a measured choice: devex scoring
  /// (rc^2 / gamma with lazily updated reference weights) was prototyped
  /// for the high-k LP (15) cells where Dantzig wanders, but over a real
  /// Fig. 10 s-ladder it cut pivots by under 1% while its extra
  /// BTRAN + weight updates doubled per-pivot cost (m = 512, k = 512:
  /// 25 s -> 49 s per s-ladder). Full-window Dantzig was rejected the same
  /// way (~8% fewer pivots, ~2x the wall time).
  int price(bool phase1, const std::vector<Scalar>& y) {
    const int limit = art0_;  // artificials never (re-)enter
    if (limit == 0) return -1;
    if (bland_) {
      for (int j = 0; j < limit; ++j) {
        if (in_basis_[static_cast<std::size_t>(j)]) continue;
        if (cost_of(j, phase1) - dot_column(j, y) > tol_) return j;
      }
      return -1;
    }
    const int window = std::max(64, limit / 8);
    int best = -1;
    Scalar best_rc = tol_;
    int scanned = 0;
    for (int off = 0; off < limit; ++off) {
      int j = cursor_ + off;
      if (j >= limit) j -= limit;
      if (in_basis_[static_cast<std::size_t>(j)]) continue;
      const Scalar rc = cost_of(j, phase1) - dot_column(j, y);
      if (rc > best_rc) {
        best = j;
        best_rc = rc;
      }
      if (++scanned >= window && best >= 0) break;
    }
    if (best >= 0) cursor_ = best + 1 == limit ? 0 : best + 1;
    return best;
  }

  /// Min-ratio leaving row for entering column w, or -1 (unbounded). Ties
  /// go to the largest pivot (stability) — smallest basis index in Bland
  /// mode.
  ///
  /// Forced leave: a zero-valued basic artificial whose row the entering
  /// column touches must exit *now*, at theta = 0. With w_r > 0 the row is
  /// an ordinary ratio-0 blocker, but with w_r < 0 the pivot would lift
  /// the artificial off zero — silently violating its equality row — so
  /// such rows preempt the regular test (largest |w_r| for stability).
  /// Artificials never re-enter (price() stops at art0_), so these
  /// degenerate pivots strictly shrink the artificial-basic set and cannot
  /// cycle. This is what lets phase 2 start with leftover zero artificials
  /// (the phase-1 skip and the crash start) without an expulsion pass.
  int ratio_test(const std::vector<Scalar>& w) const {
    int forced = -1;
    for (int r = 0; r < nrows_; ++r) {
      if (basis_[static_cast<std::size_t>(r)] < art0_) continue;
      if (x_[static_cast<std::size_t>(r)] > tol_) continue;
      const Scalar& a = w[static_cast<std::size_t>(r)];
      if (abs_of(a) <= pivot_floor()) continue;
      if (forced < 0 ||
          abs_of(a) > abs_of(w[static_cast<std::size_t>(forced)])) {
        forced = r;
      }
    }
    if (forced >= 0) return forced;
    int leave = -1;
    Scalar best_ratio{};
    for (int r = 0; r < nrows_; ++r) {
      const Scalar& a = w[static_cast<std::size_t>(r)];
      if (a <= tol_) continue;
      const Scalar ratio = x_[static_cast<std::size_t>(r)] / a;
      bool better = leave < 0 || ratio < best_ratio;
      if (!better && ratio == best_ratio) {
        if (bland_) {
          better = basis_[static_cast<std::size_t>(r)] <
                   basis_[static_cast<std::size_t>(leave)];
        } else {
          better = abs_of(a) > abs_of(w[static_cast<std::size_t>(leave)]);
        }
      }
      if (better) {
        leave = r;
        best_ratio = ratio;
      }
    }
    return leave;
  }

  Scalar pivot_floor() const {
    return tol_ > Scalar(0) ? Scalar(1e-8) : Scalar(0);
  }

  void maybe_refactor() {
    // Count only etas appended since the last refactorization: the rebuild
    // itself re-emits the non-trivial part of the basis. The period is
    // deliberately short — the singleton-driven rebuild costs about as
    // much as ONE pivot's worth of eta fill, and a short file is what
    // keeps BTRAN/FTRAN (the per-iteration cost) near O(nnz(B)): 8
    // measured ~1.5x faster end-to-end than 64 at m >= 128.
    if (etas_.size() - eta_base_ >= kRefactorEvery) {
      if (!refactor()) return;  // broken_ set; iterate() bails out
      if (tol_ > Scalar(0)) {
        for (auto& v : x_) {
          if (v < Scalar(0) && v > -tol_) v = Scalar(0);
        }
      }
    }
  }

  /// The simplex loop for one phase. Consumes iters_left_ across phases.
  RunExit iterate(bool phase1) {
    std::vector<Scalar> y;
    std::vector<Scalar> w(static_cast<std::size_t>(nrows_), Scalar(0));
    while (iters_left_ > 0 && !broken_) {
      compute_duals(phase1, y);
      const int enter = price(phase1, y);
      if (enter < 0) return RunExit::kOptimal;
      --iters_left_;  // counted once a pivot is committed to, so
                      // LpSolution::iterations is the true pivot count
      std::fill(w.begin(), w.end(), Scalar(0));
      scatter_column(enter, w);
      ftran(w);
      int leave = ratio_test(w);
      if (leave < 0) return RunExit::kUnbounded;
      // A suspect pivot right after long eta chains is usually stale
      // numerics: refactorize once and redo the FTRAN before accepting.
      if (tol_ > Scalar(0) && !etas_.empty() &&
          abs_of(w[static_cast<std::size_t>(leave)]) < pivot_floor()) {
        if (!refactor()) return RunExit::kIterLimit;
        std::fill(w.begin(), w.end(), Scalar(0));
        scatter_column(enter, w);
        ftran(w);
        leave = ratio_test(w);
        if (leave < 0) return RunExit::kUnbounded;
      }
      const Scalar theta =
          x_[static_cast<std::size_t>(leave)] / w[static_cast<std::size_t>(leave)];
      for (int r = 0; r < nrows_; ++r) {
        if (r == leave || w[static_cast<std::size_t>(r)] == Scalar(0)) continue;
        Scalar& v = x_[static_cast<std::size_t>(r)];
        v -= theta * w[static_cast<std::size_t>(r)];
        if (tol_ > Scalar(0) && v < Scalar(0) && v > -tol_) v = Scalar(0);
      }
      x_[static_cast<std::size_t>(leave)] = theta;
      push_eta(w, leave);
      in_basis_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(leave)])] =
          0;
      in_basis_[static_cast<std::size_t>(enter)] = 1;
      basis_[static_cast<std::size_t>(leave)] = enter;
      if (theta > tol_) {
        degenerate_streak_ = 0;
        bland_ = false;
      } else if (++degenerate_streak_ > kBlandStreak + nrows_) {
        bland_ = true;
      }
      maybe_refactor();
    }
    return RunExit::kIterLimit;
  }

  static constexpr std::size_t kRefactorEvery = 8;
  /// Columns with more nonzeros than this are held out of the stage-1
  /// singleton peel in refactor() (they go through the general stage 2).
  static constexpr int kStage1MaxColNnz = 8;
  static constexpr int kBlandStreak = 16;

  int n_;
  int nrows_;
  int slack0_ = 0;
  int art0_ = 0;
  int cols_ = 0;
  std::vector<Scalar> obj_;

  // Column-major sparse constraint matrix (rows already sign-flipped).
  std::vector<int> col_start_;
  std::vector<int> col_row_;
  std::vector<Scalar> col_val_;
  std::vector<Scalar> b_;
  std::vector<int> logical_;  ///< Per row: its slack (kLe) or artificial.

  // Solver state.
  Scalar tol_ = LpTol<Scalar>::value();
  std::vector<int> basis_;        ///< Basic column per row.
  std::vector<char> in_basis_;    ///< Per column.
  std::vector<Scalar> x_;         ///< Basic values per row.
  std::vector<Eta> etas_;
  std::size_t eta_base_ = 0;  ///< File size right after the last refactor.
  std::size_t iters_left_ = 0;
  int cursor_ = 0;                ///< Partial-pricing rotation point.
  int degenerate_streak_ = 0;
  bool bland_ = false;
  bool broken_ = false;  ///< Mid-solve refactorization collapsed numerically.
};

}  // namespace detail
}  // namespace flowsched
