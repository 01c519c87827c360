#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace flowsched {
namespace {

TEST(Simplex, SimpleMaximization) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj 12.
  LpProblemD lp;
  const int x = lp.add_var(3.0);
  const int y = lp.add_var(2.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLe, 4.0);
  lp.add_constraint({{x, 1.0}, {y, 3.0}}, Relation::kLe, 6.0);
  const auto sol = lp.solve();
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 12.0, 1e-9);
  EXPECT_NEAR(sol.x[0], 4.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 0.0, 1e-9);
}

TEST(Simplex, InteriorOptimum) {
  // max x + y s.t. 2x + y <= 4, x + 2y <= 4 -> x=y=4/3, obj 8/3.
  LpProblemD lp;
  const int x = lp.add_var(1.0);
  const int y = lp.add_var(1.0);
  lp.add_constraint({{x, 2.0}, {y, 1.0}}, Relation::kLe, 4.0);
  lp.add_constraint({{x, 1.0}, {y, 2.0}}, Relation::kLe, 4.0);
  const auto sol = lp.solve();
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 8.0 / 3.0, 1e-9);
  EXPECT_NEAR(sol.x[0], 4.0 / 3.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 4.0 / 3.0, 1e-9);
}

TEST(Simplex, EqualityConstraints) {
  // max x s.t. x + y = 3, x <= 2 -> x=2, y=1.
  LpProblemD lp;
  const int x = lp.add_var(1.0);
  const int y = lp.add_var(0.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 3.0);
  lp.add_constraint({{x, 1.0}}, Relation::kLe, 2.0);
  const auto sol = lp.solve();
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-9);
}

TEST(Simplex, GreaterEqualConstraints) {
  // min x + y s.t. x + y >= 2 (as max of negative) -> obj -2.
  LpProblemD lp;
  const int x = lp.add_var(-1.0);
  const int y = lp.add_var(-1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGe, 2.0);
  const auto sol = lp.solve();
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -2.0, 1e-9);
}

TEST(Simplex, DetectsInfeasibility) {
  LpProblemD lp;
  const int x = lp.add_var(1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kLe, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kGe, 2.0);
  EXPECT_EQ(lp.solve().status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  LpProblemD lp;
  const int x = lp.add_var(1.0);
  const int y = lp.add_var(0.0);
  lp.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kLe, 1.0);
  EXPECT_EQ(lp.solve().status, LpStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsHandledByRowFlip) {
  // x - y <= -1 with max -x - y ... feasible needs y >= x + 1.
  LpProblemD lp;
  const int x = lp.add_var(0.0);
  const int y = lp.add_var(-1.0);  // minimize y
  lp.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kLe, -1.0);
  const auto sol = lp.solve();
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-9);  // y = 1 at x = 0
}

TEST(Simplex, DegenerateProgramTerminates) {
  // Multiple identical constraints create degeneracy; Bland's rule must
  // still terminate at the optimum.
  LpProblemD lp;
  const int x = lp.add_var(1.0);
  const int y = lp.add_var(1.0);
  for (int i = 0; i < 4; ++i) {
    lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLe, 1.0);
  }
  lp.add_constraint({{x, 1.0}}, Relation::kLe, 1.0);
  const auto sol = lp.solve();
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 1.0, 1e-9);
}

TEST(Simplex, MassivelyDegenerateProgramTerminates) {
  // 24 copies of the same constraint make nearly every pivot degenerate.
  LpProblemD lp;
  const int x = lp.add_var(1.0);
  const int y = lp.add_var(1.0);
  const int z = lp.add_var(1.0);
  for (int i = 0; i < 24; ++i) {
    lp.add_constraint({{x, 1.0}, {y, 1.0}, {z, 1.0}}, Relation::kLe, 1.0);
  }
  lp.add_constraint({{x, 1.0}}, Relation::kLe, 1.0);
  const auto sol = lp.solve();
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 1.0, 1e-9);
}

TEST(Simplex, BealeCyclingProgramTerminates) {
  // Beale (1955): the classic program on which Dantzig pricing with naive
  // tie-breaking cycles forever. Bland's rule must reach the optimum
  // (x3 = 1, objective 1/20).
  LpProblemD lp;
  const int x1 = lp.add_var(0.75);
  const int x2 = lp.add_var(-150.0);
  const int x3 = lp.add_var(0.02);
  const int x4 = lp.add_var(-6.0);
  lp.add_constraint({{x1, 0.25}, {x2, -60.0}, {x3, -1.0 / 25.0}, {x4, 9.0}},
                    Relation::kLe, 0.0);
  lp.add_constraint({{x1, 0.5}, {x2, -90.0}, {x3, -1.0 / 50.0}, {x4, 3.0}},
                    Relation::kLe, 0.0);
  lp.add_constraint({{x3, 1.0}}, Relation::kLe, 1.0);
  const auto sol = lp.solve();
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 0.05, 1e-9);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x3)], 1.0, 1e-9);
}

TEST(Simplex, RepeatedTermsAccumulate) {
  // x + x <= 2 means 2x <= 2.
  LpProblemD lp;
  const int x = lp.add_var(1.0);
  lp.add_constraint({{x, 1.0}, {x, 1.0}}, Relation::kLe, 2.0);
  const auto sol = lp.solve();
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 1.0, 1e-9);
}

TEST(SimplexExact, RationalSolverAgreesWithDouble) {
  // Same program in exact arithmetic: max 3x + 2y, x + y <= 4, x + 3y <= 6.
  LpProblemQ lp;
  const int x = lp.add_var(Rational(3));
  const int y = lp.add_var(Rational(2));
  lp.add_constraint({{x, Rational(1)}, {y, Rational(1)}}, Relation::kLe,
                    Rational(4));
  lp.add_constraint({{x, Rational(1)}, {y, Rational(3)}}, Relation::kLe,
                    Rational(6));
  const auto sol = lp.solve();
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_EQ(sol.objective, Rational(12));
  EXPECT_EQ(sol.x[0], Rational(4));
}

TEST(SimplexExact, ExactFractionalOptimum) {
  // max x + y, 2x + y <= 4, x + 2y <= 4 -> exactly 8/3.
  LpProblemQ lp;
  const int x = lp.add_var(Rational(1));
  const int y = lp.add_var(Rational(1));
  lp.add_constraint({{x, Rational(2)}, {y, Rational(1)}}, Relation::kLe,
                    Rational(4));
  lp.add_constraint({{x, Rational(1)}, {y, Rational(2)}}, Relation::kLe,
                    Rational(4));
  const auto sol = lp.solve();
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_EQ(sol.objective, Rational(8, 3));
  EXPECT_EQ(sol.x[0], Rational(4, 3));
}

TEST(SimplexExact, InfeasibleDetectedExactly) {
  LpProblemQ lp;
  const int x = lp.add_var(Rational(1));
  lp.add_constraint({{x, Rational(1)}}, Relation::kEq, Rational(1));
  lp.add_constraint({{x, Rational(1)}}, Relation::kEq, Rational(2));
  EXPECT_EQ(lp.solve().status, LpStatus::kInfeasible);
}

TEST(SimplexExact, BealeCyclingProgramTerminatesExactly) {
  LpProblemQ lp;
  const int x1 = lp.add_var(Rational(3, 4));
  const int x2 = lp.add_var(Rational(-150));
  const int x3 = lp.add_var(Rational(1, 50));
  const int x4 = lp.add_var(Rational(-6));
  lp.add_constraint({{x1, Rational(1, 4)},
                     {x2, Rational(-60)},
                     {x3, Rational(-1, 25)},
                     {x4, Rational(9)}},
                    Relation::kLe, Rational(0));
  lp.add_constraint({{x1, Rational(1, 2)},
                     {x2, Rational(-90)},
                     {x3, Rational(-1, 50)},
                     {x4, Rational(3)}},
                    Relation::kLe, Rational(0));
  lp.add_constraint({{x3, Rational(1)}}, Relation::kLe, Rational(1));
  const auto sol = lp.solve();
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_EQ(sol.objective, Rational(1, 20));
}

TEST(SimplexExact, EqualityProgram) {
  // max a s.t. a + b = 3, a <= 2 -> a = 2, b = 1 exactly.
  LpProblemQ lp;
  const int a = lp.add_var(Rational(1));
  const int b = lp.add_var(Rational(0));
  lp.add_constraint({{a, Rational(1)}, {b, Rational(1)}}, Relation::kEq,
                    Rational(3));
  lp.add_constraint({{a, Rational(1)}}, Relation::kLe, Rational(2));
  const auto sol = lp.solve();
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_EQ(sol.x[0], Rational(2));
  EXPECT_EQ(sol.x[1], Rational(1));
}

// ---- Randomized double-vs-Rational agreement -------------------------------

struct RandomLp {
  LpProblemD as_double;
  LpProblemQ as_exact;
};

/// A small random program with integer data, built identically in double
/// and Rational arithmetic. Sparse on purpose: ~40% of coefficients are 0.
RandomLp random_lp(Rng& rng) {
  RandomLp lp;
  const int n = 1 + static_cast<int>(rng.uniform_int(0, 4));
  const int rows = 1 + static_cast<int>(rng.uniform_int(0, 4));
  for (int v = 0; v < n; ++v) {
    const int c = static_cast<int>(rng.uniform_int(0, 6)) - 3;
    lp.as_double.add_var(static_cast<double>(c));
    lp.as_exact.add_var(Rational(c));
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> dterms;
    std::vector<std::pair<int, Rational>> qterms;
    for (int v = 0; v < n; ++v) {
      if (rng.uniform_int(0, 9) < 4) continue;
      const int c = static_cast<int>(rng.uniform_int(0, 6)) - 3;
      if (c == 0) continue;
      dterms.emplace_back(v, static_cast<double>(c));
      qterms.emplace_back(v, Rational(c));
    }
    if (dterms.empty()) {
      dterms.emplace_back(0, 1.0);
      qterms.emplace_back(0, Rational(1));
    }
    const int rel_pick = static_cast<int>(rng.uniform_int(0, 5));
    const Relation rel = rel_pick < 3   ? Relation::kLe
                         : rel_pick < 5 ? Relation::kGe
                                        : Relation::kEq;
    const int rhs = static_cast<int>(rng.uniform_int(0, 8)) - 4;
    lp.as_double.add_constraint(dterms, rel, static_cast<double>(rhs));
    lp.as_exact.add_constraint(qterms, rel, Rational(rhs));
  }
  return lp;
}

TEST(Simplex, RandomProgramsAgreeAcrossScalars) {
  int optimal = 0;
  int infeasible = 0;
  int unbounded = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(9000 + seed);
    RandomLp lp = random_lp(rng);
    const auto as_double = lp.as_double.solve();
    const auto exact = lp.as_exact.solve();
    ASSERT_EQ(as_double.status, exact.status) << "seed " << seed;
    switch (exact.status) {
      case LpStatus::kOptimal: {
        ++optimal;
        const double value = exact.objective.to_double();
        EXPECT_NEAR(as_double.objective, value, 1e-7 * (1.0 + std::abs(value)))
            << "seed " << seed;
        break;
      }
      case LpStatus::kInfeasible:
        ++infeasible;
        break;
      case LpStatus::kUnbounded:
        ++unbounded;
        break;
      case LpStatus::kIterLimit:
        FAIL() << "iteration limit on seed " << seed;
    }
  }
  // The generator must actually exercise all three outcomes.
  EXPECT_GE(optimal, 40);
  EXPECT_GT(infeasible, 10);
  EXPECT_GT(unbounded, 10);
}

// ---- Basic programs solved in both scalars ---------------------------------
// The SimplexRevised suite once ran these through a sparse revised solver;
// solve() has one engine now, so they check that the double run agrees with
// the exact Rational run of the same tableau.

TEST(SimplexRevised, AgreesWithTableauOnBasics) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> obj 12 at (4, 0).
  LpProblemD lp;
  const int x = lp.add_var(3.0);
  const int y = lp.add_var(2.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLe, 4.0);
  lp.add_constraint({{x, 1.0}, {y, 3.0}}, Relation::kLe, 6.0);
  LpProblemQ exact_lp;
  const int qx = exact_lp.add_var(Rational(3));
  const int qy = exact_lp.add_var(Rational(2));
  exact_lp.add_constraint({{qx, Rational(1)}, {qy, Rational(1)}},
                          Relation::kLe, Rational(4));
  exact_lp.add_constraint({{qx, Rational(1)}, {qy, Rational(3)}},
                          Relation::kLe, Rational(6));
  const auto sol = lp.solve();
  const auto exact = exact_lp.solve();
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  ASSERT_EQ(exact.status, LpStatus::kOptimal);
  EXPECT_EQ(exact.objective, Rational(12));
  EXPECT_NEAR(sol.objective, exact.objective.to_double(), 1e-9);
  EXPECT_NEAR(sol.x[0], 4.0, 1e-9);
  EXPECT_EQ(exact.x[0], Rational(4));
}

TEST(SimplexRevised, DetectsInfeasibility) {
  LpProblemD lp;
  const int x = lp.add_var(1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kLe, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kGe, 2.0);
  EXPECT_EQ(lp.solve().status, LpStatus::kInfeasible);

  LpProblemQ exact_lp;
  const int qx = exact_lp.add_var(Rational(1));
  exact_lp.add_constraint({{qx, Rational(1)}}, Relation::kLe, Rational(1));
  exact_lp.add_constraint({{qx, Rational(1)}}, Relation::kGe, Rational(2));
  EXPECT_EQ(exact_lp.solve().status, LpStatus::kInfeasible);
}

TEST(SimplexRevised, DetectsUnboundedness) {
  LpProblemD lp;
  const int x = lp.add_var(1.0);
  const int y = lp.add_var(0.0);
  lp.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kLe, 1.0);
  EXPECT_EQ(lp.solve().status, LpStatus::kUnbounded);

  LpProblemQ exact_lp;
  const int qx = exact_lp.add_var(Rational(1));
  const int qy = exact_lp.add_var(Rational(0));
  exact_lp.add_constraint({{qx, Rational(1)}, {qy, Rational(-1)}},
                          Relation::kLe, Rational(1));
  EXPECT_EQ(exact_lp.solve().status, LpStatus::kUnbounded);
}

}  // namespace
}  // namespace flowsched
