// Simulation-free evaluation of the paper's bound landscape.
//
// Every number the repo reports elsewhere comes from running a dispatcher;
// this library evaluates the paper's competitive-ratio *theorems* directly,
// as closed-form functions of (m, k, structure, algorithm class), exactly
// where the proofs are exact (Rational arithmetic throughout). It answers
// two questions without simulating:
//
//   1. "What ratio does the paper guarantee / forbid for this cell?" —
//      evaluate_cell() returns the tightest applicable lower- and
//      upper-bound ratios together with the *binding theorem's name*.
//   2. "What Fmax will the adversary constructions realize?" — the
//      theoremN_predicted_fmax() functions reproduce each Section-6
//      construction's achieved Fmax in closed form; the adversary runners
//      (src/adversary) expose the same value as
//      AdversaryResult::predicted_fmax, and tests/test_bounds.cpp asserts
//      bitwise equality between formula, construction, and simulation.
//
// Theorem inventory (normative prose in docs/bounds.md):
//   Th. 1        FIFO (and EFT, via Prop. 1) is (3 - 2/m)-competitive on
//                unrestricted sets. Upper bound, tight.
//   Th. 3        inclusive sets, any immediate-dispatch: ratio >=
//                floor(log2 m) + 1 as p -> inf; the finite-p construction
//                realizes Fmax = (L+1)p - L with L = floor(log2 m).
//   Th. 4        fixed-size-k sets, any immediate-dispatch: ratio >=
//                floor(log_k m); finite-p Fmax = Lp - (L-1).
//   Th. 5        nested sets, ANY online algorithm: ratio >=
//                (floor(log2 m) + 2) / 3, already exact at unit tasks.
//   Th. 6/Cor. 1 disjoint sets of size <= k: EFT is (3 - 2/k)-competitive.
//   Th. 7        fixed-size intervals, ANY online: ratio >= 2 - 1/p.
//   Th. 8/9/10   size-k intervals, EFT with Min / random / any tie-break:
//                ratio >= m - k + 1 (absolute Fmax m - k + 1 vs OPT -> 1).
//
// The levels L are computed by integer loops, never by floating log: the
// double expression floor(log(m)/log(k)) is off by one at e.g. m = 243,
// k = 3 (matching the comment in src/adversary/ksize.cpp).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "util/rational.hpp"

namespace flowsched::bounds {

/// \brief Structure class of a processing-set family, ordered roughly from
/// least to most restricted (Figure 1 of the paper).
///
/// The classes used by the evaluator mirror the rows of the paper's
/// Table 2: kInterval and kDisjoint are parameterized by the set size k;
/// kKSize is "every set has size exactly k" with no interval requirement;
/// kInclusive / kNested ignore k.
enum class StructureClass {
  kUnrestricted,  ///< Every task may run anywhere (classic P | online r_i | Fmax).
  kInclusive,     ///< Any two sets are comparable: M_i subset of M_j or vice versa.
  kNested,        ///< Sets are disjoint or comparable (laminar family).
  kKSize,         ///< Every set has exactly k machines (arbitrary membership).
  kInterval,      ///< Every set is a size-k interval of consecutive machines.
  kDisjoint,      ///< Sets are equal or disjoint; group size <= k.
};

/// \brief Online-algorithm class a bound quantifies over, ordered by
/// inclusion: kEftMin is one algorithm, kAnyOnline is all of them.
///
/// A lower bound proved against every algorithm of class X applies to a
/// query class A iff A is contained in X; an upper bound proved for EFT
/// applies iff the query class is contained in the EFT family.
enum class AlgoClass {
  kEftMin,             ///< EFT breaking ties toward the lowest machine index.
  kEftAnyTie,          ///< EFT with an arbitrary (even adversarial) tie-break.
  kImmediateDispatch,  ///< Any rule that irrevocably assigns at release time.
  kAnyOnline,          ///< Any online algorithm, immediate dispatch or not.
};

/// \brief Human-readable name ("interval", "disjoint", ...).
std::string to_string(StructureClass s);
/// \brief Human-readable name ("eft-min", "online", ...).
std::string to_string(AlgoClass a);
/// \brief Inverse of to_string(StructureClass); nullopt on unknown input.
std::optional<StructureClass> parse_structure_class(const std::string& name);
/// \brief Inverse of to_string(AlgoClass); nullopt on unknown input.
std::optional<AlgoClass> parse_algo_class(const std::string& name);

/// \brief True iff a bound quantified over algorithm class `bound_class`
/// constrains every algorithm of class `query`.
bool algo_within(AlgoClass query, AlgoClass bound_class);

// --- Theorem 1 / Theorem 6 upper bounds ------------------------------------

/// \brief Theorem 1 competitive ratio 3 - 2/m of FIFO (= EFT by Prop. 1) on
/// unrestricted processing sets.
/// \param m number of machines, m >= 1.
/// \return the exact ratio as a Rational.
Rational theorem1_ratio(int m);

/// \brief Corollary 1 ratio 3 - 2/k for EFT on disjoint sets of size <= k.
/// \param k largest group size, k >= 1.
Rational corollary1_ratio(int k);

/// \brief Theorem 6 / Corollary 1 Fmax ceiling: (3 - 2/k) * opt_fmax.
/// \param k largest group size, k >= 1.
/// \param opt_fmax the offline optimum (or any upper estimate of it).
Rational theorem6_disjoint_upper(int k, const Rational& opt_fmax);

// --- Theorem 3 (inclusive, immediate dispatch) ------------------------------

/// \brief L = floor(log2 m), the number of halving levels the Theorem 3
/// construction uses on a cluster of m machines (m >= 2). Integer-exact.
int theorem3_levels(int m);

/// \brief Fmax the Theorem 3 construction realizes with task length p:
/// (L+1)p - L. The last singleton task waits L levels of length-(p-1)
/// backlog and then runs for p.
/// \param m number of machines (m >= 2; rounded down to a power of two
///        internally, exactly like run_th3_inclusive).
/// \param p construction task length, p > L.
Rational theorem3_predicted_fmax(int m, const Rational& p);

/// \brief Theorem 3 ratio at finite p: ((L+1)p - L) / p = (L+1) - L/p.
/// Tends to floor(log2 m) + 1 as p -> inf.
Rational theorem3_ratio(int m, const Rational& p);

// --- Theorem 4 (fixed size k, immediate dispatch) ---------------------------

/// \brief L = floor(log_k m), computed by the exact integer loop (the
/// floating-point log ratio is off by one at e.g. m = 243, k = 3).
/// \param m number of machines, m >= k.
/// \param k set size, k >= 2.
int theorem4_levels(int m, int k);

/// \brief Fmax the Theorem 4 construction realizes: Lp - (L-1).
/// \param m number of machines (internally rounded down to a power of k).
/// \param k set size, k >= 2.
/// \param p construction task length, p > L.
Rational theorem4_predicted_fmax(int m, int k, const Rational& p);

/// \brief Theorem 4 ratio at finite p: L - (L-1)/p; tends to floor(log_k m).
Rational theorem4_ratio(int m, int k, const Rational& p);

// --- Theorem 5 (nested, any online) -----------------------------------------

/// \brief Fmax = floor(log2 m) + 2 forced on SOME machine by the Theorem 5
/// unit-task construction (exact — no p parameter).
/// \param m number of machines, m >= 4 (rounded down to a power of two).
Rational theorem5_predicted_fmax(int m);

/// \brief Theorem 5 ratio (floor(log2 m) + 2) / 3 against OPT = 3.
Rational theorem5_ratio(int m);

// --- Theorem 7 (fixed-size intervals, any online) ---------------------------

/// \brief Fmax = 2p - 1 the Theorem 7 two-interval construction forces.
/// \param p construction task length, p >= 1.
Rational theorem7_predicted_fmax(const Rational& p);

/// \brief Theorem 7 ratio (2p - 1)/p = 2 - 1/p; tends to 2.
Rational theorem7_ratio(const Rational& p);

// --- Theorems 8/9/10 (size-k intervals, EFT) --------------------------------

/// \brief Steady-state Fmax = m - k + 1 of the Theorem 8 stream (exact:
/// unit tasks, integer releases). Also the Theorem 9 (random tie-break,
/// almost surely) and Theorem 10 (any tie-break) value.
/// \param m number of machines.
/// \param k interval size, 1 < k < m.
Rational theorem8_predicted_fmax(int m, int k);

/// \brief Theorem 8/9/10 ratio m - k + 1 (OPT of the stream is 1; Theorem
/// 10's padded variant has OPT = 1 + m(m+1)/2 * 2^-20, the "1 + o(1)" of
/// the proof).
Rational theorem8_ratio(int m, int k);

// --- Cell evaluation ---------------------------------------------------------

/// \brief One point of the (m, k, structure, algorithm) grid.
struct BoundQuery {
  int m = 2;  ///< Number of machines.
  int k = 2;  ///< Set-size / replication parameter (ignored by k-free
              ///< structures: kUnrestricted, kInclusive, kNested).
  StructureClass structure = StructureClass::kUnrestricted;
  AlgoClass alg = AlgoClass::kEftMin;
  Rational p = 1000;  ///< Task length for the finite-p constructions
                      ///< (Th. 3/4/7); their ratios tend to the paper's
                      ///< stated limits as p grows.
};

/// \brief A one-sided competitive-ratio bound with provenance.
struct RatioBound {
  bool known = false;   ///< False: the paper leaves this side open.
  Rational ratio = 1;   ///< The bound value (trivial 1 when !known on the
                        ///< lower side).
  std::string theorem;  ///< Binding theorem, e.g. "Th. 8"; "open"/"trivial"
                        ///< when !known.
};

/// \brief Both sides of the landscape at one grid cell.
struct BoundCell {
  RatioBound lower;  ///< Best applicable lower bound (max over theorems
                     ///< whose construction fits the cell's structure and
                     ///< whose algorithm class contains the query's).
  RatioBound upper;  ///< Applicable worst-case guarantee, if any.
};

/// \brief Evaluates the tightest applicable bounds at one grid cell.
///
/// Lower bounds apply when the construction's family belongs to the queried
/// structure class (using the paper's inclusions: inclusive is nested;
/// intervals are fixed-size sets) and the queried algorithm class is inside
/// the class the theorem quantifies over. Upper bounds (Th. 1, Th. 6/Cor. 1)
/// apply to the EFT family only.
/// \param q the grid cell; q.m >= 2, and 2 <= q.k <= q.m where k applies.
/// \return the cell with binding theorem names filled in.
BoundCell evaluate_cell(const BoundQuery& q);

/// \brief The full landscape over a parameter grid, renderable as a table.
struct BoundReport {
  struct Row {
    BoundQuery query;
    BoundCell cell;
  };
  std::vector<Row> rows;

  /// \brief Render as an aligned text table (m, k, structure, algorithm,
  /// lower ratio + theorem, upper ratio + theorem).
  std::string render() const;
};

/// \brief Evaluates every (m, k, structure) combination for one algorithm
/// class. Structures that ignore k contribute one row per m (not per k).
/// \param ms machine counts, each >= 2.
/// \param ks set sizes, each >= 2 (rows with k > m are skipped).
/// \param structures structure classes to cover.
/// \param alg the algorithm class for every row.
/// \param p finite-p task length for the Th. 3/4/7 forms.
BoundReport evaluate_grid(const std::vector<int>& ms, const std::vector<int>& ks,
                          const std::vector<StructureClass>& structures,
                          AlgoClass alg, const Rational& p);

}  // namespace flowsched::bounds
