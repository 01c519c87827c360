#include "bounds/bounds.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "adversary/inclusive.hpp"
#include "adversary/interval2.hpp"
#include "adversary/ksize.hpp"
#include "adversary/nested.hpp"
#include "adversary/smalltask.hpp"
#include "adversary/th8_stream.hpp"
#include "bounds/planner.hpp"
#include "check/fuzz.hpp"
#include "lp/maxload.hpp"
#include "sched/dispatchers.hpp"
#include "util/rng.hpp"
#include "workload/popularity.hpp"
#include "workload/replication.hpp"

namespace flowsched {
namespace {

using bounds::AlgoClass;
using bounds::BoundCell;
using bounds::BoundQuery;
using bounds::StructureClass;

// --- Closed forms -----------------------------------------------------------

TEST(Bounds, Theorem1RatioExact) {
  EXPECT_EQ(bounds::theorem1_ratio(1), Rational(1));
  EXPECT_EQ(bounds::theorem1_ratio(2), Rational(2));
  EXPECT_EQ(bounds::theorem1_ratio(4), Rational(5, 2));
  EXPECT_EQ(bounds::theorem1_ratio(16), Rational(23, 8));
  // Ceiling scales linearly in the optimum.
  EXPECT_EQ(bounds::theorem1_upper(4, Rational(6)), Rational(15));
}

TEST(Bounds, Corollary1RatioExact) {
  EXPECT_EQ(bounds::corollary1_ratio(1), Rational(1));
  EXPECT_EQ(bounds::corollary1_ratio(2), Rational(2));
  EXPECT_EQ(bounds::corollary1_ratio(3), Rational(7, 3));
  EXPECT_EQ(bounds::theorem6_disjoint_upper(3, Rational(3)), Rational(7));
}

TEST(Bounds, LevelsAreIntegerExact) {
  EXPECT_EQ(bounds::theorem3_levels(2), 1);
  EXPECT_EQ(bounds::theorem3_levels(16), 4);
  EXPECT_EQ(bounds::theorem3_levels(17), 4);
  // The documented floating-log trap: floor(log(243)/log(3)) evaluates to 4
  // in double arithmetic; the true value is 5 (3^5 = 243).
  EXPECT_EQ(bounds::theorem4_levels(243, 3), 5);
  EXPECT_EQ(bounds::theorem4_levels(242, 3), 4);
  EXPECT_EQ(bounds::theorem4_levels(27, 3), 3);
}

TEST(Bounds, PredictedFmaxClosedForms) {
  const Rational p(1000);
  // (L+1)p - L with L = 4 at m = 16.
  EXPECT_EQ(bounds::theorem3_predicted_fmax(16, p), Rational(4996));
  // Lp - (L-1) with L = 3 at m = 27, k = 3.
  EXPECT_EQ(bounds::theorem4_predicted_fmax(27, 3, p), Rational(2998));
  // floor(log2 m) + 2 at m = 16.
  EXPECT_EQ(bounds::theorem5_predicted_fmax(16), Rational(6));
  EXPECT_EQ(bounds::theorem7_predicted_fmax(p), Rational(1999));
  EXPECT_EQ(bounds::theorem8_predicted_fmax(10, 3), Rational(8));
  // 1 + m(m+1)/2 * 2^-20 at m = 10: 1 + 55/2^20.
  EXPECT_EQ(bounds::theorem10_opt_upper(10),
            Rational(1) + Rational(55, std::int64_t{1} << 20));
}

// --- Cross-check: closed form == construction's report == simulation --------

TEST(Bounds, Theorem3MatchesConstructionExactly) {
  EftDispatcher eft(TieBreakKind::kMin, 0);
  const AdversaryResult r = run_th3_inclusive(eft, 16, 1000.0);
  const double predicted =
      bounds::theorem3_predicted_fmax(16, Rational(1000)).to_double();
  EXPECT_EQ(r.predicted_fmax, predicted);
  EXPECT_EQ(r.achieved_fmax, predicted);
}

TEST(Bounds, Theorem4MatchesConstructionExactly) {
  EftDispatcher eft(TieBreakKind::kMin, 0);
  const AdversaryResult r = run_th4_ksize(eft, 27, 3, 1000.0);
  const double predicted =
      bounds::theorem4_predicted_fmax(27, 3, Rational(1000)).to_double();
  EXPECT_EQ(r.predicted_fmax, predicted);
  EXPECT_EQ(r.achieved_fmax, predicted);
}

TEST(Bounds, Theorem5MatchesConstructionExactly) {
  EftDispatcher eft(TieBreakKind::kMin, 0);
  const AdversaryResult r = run_th5_nested(eft, 16);
  const double predicted = bounds::theorem5_predicted_fmax(16).to_double();
  EXPECT_EQ(r.predicted_fmax, predicted);
  EXPECT_EQ(r.achieved_fmax, predicted);
}

TEST(Bounds, Theorem7MatchesConstructionExactly) {
  EftDispatcher eft(TieBreakKind::kMin, 0);
  const AdversaryResult r = run_th7_interval(eft, 1000.0);
  const double predicted =
      bounds::theorem7_predicted_fmax(Rational(1000)).to_double();
  EXPECT_EQ(r.predicted_fmax, predicted);
  EXPECT_EQ(r.achieved_fmax, predicted);
}

TEST(Bounds, Theorem8MatchesConstructionExactly) {
  EftDispatcher eft(TieBreakKind::kMin, 0);
  const AdversaryResult r = run_th8(eft, 10, 3);
  const double predicted = bounds::theorem8_predicted_fmax(10, 3).to_double();
  EXPECT_EQ(r.predicted_fmax, predicted);
  EXPECT_EQ(r.achieved_fmax, predicted);
}

TEST(Bounds, Theorem10ReachesPredictionWithinCalibration) {
  // Th. 10's padding perturbs completions by multiples of delta = 2^-20, so
  // the realized Fmax may sit a few deltas off the clean m - k + 1 level —
  // but never below it by more than m^2 * delta, and its OPT stays under
  // the theorem10_opt_upper certificate.
  EftDispatcher eft(TieBreakKind::kMin, 0);
  const AdversaryResult r = run_th10_smalltask(eft, 10, 3);
  const double predicted = bounds::theorem8_predicted_fmax(10, 3).to_double();
  const double tol = 10.0 * 10.0 * 0x1.0p-20;
  EXPECT_EQ(r.predicted_fmax, predicted);
  EXPECT_GE(r.achieved_fmax, predicted - tol);
  EXPECT_LE(r.opt_fmax, bounds::theorem10_opt_upper(10).to_double());
}

// --- Cell evaluation: binding-theorem selection -----------------------------

TEST(BoundCellTest, UnrestrictedEftIsTheorem1) {
  const BoundCell cell = bounds::evaluate_cell(
      {.m = 16, .structure = StructureClass::kUnrestricted});
  EXPECT_TRUE(cell.upper.known);
  EXPECT_EQ(cell.upper.theorem, "Th. 1");
  EXPECT_EQ(cell.upper.ratio, Rational(23, 8));
  EXPECT_FALSE(cell.lower.known);  // no adversary fits unrestricted sets
}

TEST(BoundCellTest, DisjointEftIsCorollary1) {
  const BoundCell cell = bounds::evaluate_cell(
      {.m = 16, .k = 4, .structure = StructureClass::kDisjoint});
  EXPECT_TRUE(cell.upper.known);
  EXPECT_EQ(cell.upper.theorem, "Cor. 1");
  EXPECT_EQ(cell.upper.ratio, Rational(5, 2));
}

TEST(BoundCellTest, InclusiveLowerIsTheorem3ForImmediateDispatch) {
  const BoundCell cell = bounds::evaluate_cell(
      {.m = 16, .structure = StructureClass::kInclusive});
  EXPECT_TRUE(cell.lower.known);
  EXPECT_EQ(cell.lower.theorem, "Th. 3");
  EXPECT_FALSE(cell.upper.known);  // the paper leaves this side open
}

TEST(BoundCellTest, IntervalLowerNamesTieBreakSensitiveTheorem) {
  // EFT-Min gets the deterministic Th. 8 stream; an arbitrary-tie EFT is
  // covered by the Th. 10 variant instead.
  const BoundCell min_cell = bounds::evaluate_cell(
      {.m = 16, .k = 3, .structure = StructureClass::kInterval});
  EXPECT_EQ(min_cell.lower.theorem, "Th. 8");
  EXPECT_EQ(min_cell.lower.ratio, Rational(14));
  const BoundCell any_cell =
      bounds::evaluate_cell({.m = 16,
                             .k = 3,
                             .structure = StructureClass::kInterval,
                             .alg = AlgoClass::kEftAnyTie});
  EXPECT_EQ(any_cell.lower.theorem, "Th. 10");
  EXPECT_EQ(any_cell.lower.ratio, Rational(14));
}

TEST(BoundCellTest, NestedAnyOnlineIsTheorem5) {
  // Against ANY online algorithm the immediate-dispatch Th. 3 construction
  // no longer applies; Th. 5 does.
  const BoundCell cell = bounds::evaluate_cell({.m = 16,
                                               .structure =
                                                   StructureClass::kNested,
                                               .alg = AlgoClass::kAnyOnline});
  EXPECT_EQ(cell.lower.theorem, "Th. 5");
  EXPECT_EQ(cell.lower.ratio, Rational(2));  // (4 + 2) / 3
}

TEST(BoundCellTest, AlgoInclusionChain) {
  using bounds::algo_within;
  EXPECT_TRUE(algo_within(AlgoClass::kEftMin, AlgoClass::kAnyOnline));
  EXPECT_TRUE(algo_within(AlgoClass::kEftMin, AlgoClass::kImmediateDispatch));
  EXPECT_FALSE(algo_within(AlgoClass::kAnyOnline, AlgoClass::kEftMin));
  EXPECT_FALSE(
      algo_within(AlgoClass::kImmediateDispatch, AlgoClass::kEftAnyTie));
}

// --- Grid monotonicity ------------------------------------------------------

TEST(BoundGrid, IntervalLowerBoundNonIncreasingInK) {
  Rational prev = bounds::theorem8_ratio(32, 2);
  for (int k = 3; k < 32; ++k) {
    const Rational cur = bounds::theorem8_ratio(32, k);
    EXPECT_LE(cur, prev) << "k=" << k;
    prev = cur;
  }
}

TEST(BoundGrid, UpperCeilingsMonotoneInOpt) {
  // Both ceilings are linear in the optimum: non-decreasing in opt (load).
  EXPECT_LE(bounds::theorem1_upper(8, Rational(2)),
            bounds::theorem1_upper(8, Rational(3)));
  EXPECT_LE(bounds::theorem6_disjoint_upper(4, Rational(2)),
            bounds::theorem6_disjoint_upper(4, Rational(3)));
  // And the ratios grow with m / k toward their limits.
  EXPECT_LE(bounds::theorem1_ratio(8), bounds::theorem1_ratio(9));
  EXPECT_LE(bounds::corollary1_ratio(3), bounds::corollary1_ratio(4));
}

TEST(BoundGrid, GridSkipsKAboveM) {
  const bounds::BoundReport report = bounds::evaluate_grid(
      {4}, {2, 8}, {StructureClass::kInterval}, AlgoClass::kEftMin,
      Rational(1000));
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_EQ(report.rows[0].query.k, 2);
}

// --- Planner ----------------------------------------------------------------

TEST(Planner, IntervalTargetForcesMMinusFPlusOneReplicas) {
  // On the ring, Th. 8/10 forces Fmax = (m - k + 1) * OPT, so F = 20 on
  // m = 256 requires k >= 237 once you insist on k >= 2.
  bounds::PlannerQuery q;
  q.m = 256;
  q.structure = StructureClass::kInterval;
  q.target_fmax = 20.0;
  const bounds::PlannerResult r = bounds::min_feasible_k(q);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.min_k, 1);  // k = 1 is per-machine FIFO: adversarially safe
  EXPECT_EQ(r.min_replicated_k, 237);
}

TEST(Planner, DisjointTargetComesWithGuarantee) {
  bounds::PlannerQuery q;
  q.m = 16;
  q.structure = StructureClass::kDisjoint;
  q.target_fmax = 4.0;
  q.opt_estimate = 2.0;
  const bounds::PlannerResult r = bounds::min_feasible_k(q);
  EXPECT_TRUE(r.feasible);
  // (3 - 2/k) * 2 <= 4 iff k <= 2: Cor. 1 guarantees the target up to k=2.
  EXPECT_EQ(r.max_guaranteed_k, 2);
}

TEST(Planner, InfeasibleWhenTargetBelowOptimum) {
  bounds::PlannerQuery q;
  q.m = 16;
  q.structure = StructureClass::kInterval;
  q.target_fmax = 1.0;
  q.opt_estimate = 2.0;  // target below the optimum itself
  EXPECT_FALSE(bounds::min_feasible_k(q).feasible);
}

TEST(Planner, SaturationScanRaisesMinK) {
  // At rho = 0.6 with worst-case Zipf(1.0) placement, k = 1 cannot sustain
  // the offered load on disjoint blocks; the LP forces a larger k than the
  // adversarial side alone would.
  bounds::PlannerQuery q;
  q.m = 16;
  q.structure = StructureClass::kDisjoint;
  q.target_fmax = 100.0;  // flow target not binding
  q.load = 0.6;
  q.zipf_s = 1.0;
  const bounds::PlannerResult r = bounds::min_feasible_k(q);
  EXPECT_TRUE(r.feasible);
  EXPECT_GT(r.saturation_k, 1);
  EXPECT_EQ(r.min_k, r.saturation_k);
  EXPECT_EQ(r.binding, "LP (15) saturation");
}

TEST(Planner, SaturationKMatchesTheSimplexScan) {
  // The scan scores each k in closed form; the simplex tableau on the
  // same worst-case popularity must put the frontier at the same k.
  const int m = 16;
  Rng rng(0);
  const auto pop = make_popularity(PopularityCase::kWorstCase, m, 1.0, rng);
  for (auto structure : {StructureClass::kInterval, StructureClass::kDisjoint}) {
    const ReplicationStrategy strategy = structure == StructureClass::kDisjoint
                                             ? ReplicationStrategy::kDisjoint
                                             : ReplicationStrategy::kOverlapping;
    for (double load : {0.3, 0.6, 0.9}) {
      bounds::PlannerQuery q;
      q.m = m;
      q.structure = structure;
      q.target_fmax = 100.0;
      q.load = load;
      q.zipf_s = 1.0;
      int expected = 0;
      for (int k = 1; k <= m && expected == 0; ++k) {
        const double lambda =
            max_load_lp_tableau(pop, replica_sets(strategy, k, m)).lambda;
        if (load * m <= lambda + 1e-9) expected = k;
      }
      EXPECT_EQ(bounds::min_feasible_k(q).saturation_k, expected)
          << "load " << load;
    }
  }
}

TEST(Planner, NanLoadIsRejectedNotSkipped) {
  bounds::PlannerQuery q;
  q.m = 16;
  q.structure = StructureClass::kInterval;
  q.target_fmax = 20.0;
  q.load = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(bounds::min_feasible_k(q), std::invalid_argument);
  q.load = -1.0;  // negative: the scan is off
  EXPECT_TRUE(bounds::min_feasible_k(q).feasible);
  EXPECT_EQ(bounds::min_feasible_k(q).saturation_k, 0);
  q.load = std::numeric_limits<double>::infinity();  // nothing sustains it
  EXPECT_FALSE(bounds::min_feasible_k(q).feasible);
}

// --- [diff-bounds] in the fuzzer --------------------------------------------

TEST(DiffBounds, FuzzCampaignArmsAndPassesBoundChecks) {
  FuzzConfig config;
  config.seed = 7;
  config.runs = 12;
  config.shrink = false;
  config.fault_every = 0;
  const FuzzReport report = run_fuzz(config);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.bounds_checks, 12);
}

TEST(DiffBounds, DisabledByConfig) {
  FuzzConfig config;
  config.seed = 7;
  config.runs = 4;
  config.shrink = false;
  config.fault_every = 0;
  config.bounds_diff = false;
  const FuzzReport report = run_fuzz(config);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.bounds_checks, 0);
}

}  // namespace
}  // namespace flowsched
