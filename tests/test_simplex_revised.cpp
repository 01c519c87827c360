// The sparse revised simplex (lp/revised.hpp) against the dense tableau
// oracle: degenerate/cycling programs, infeasible/unbounded detection
// through the revised path, the crash-start contract, and a randomized
// cross-check of revised-double, tableau-double, revised-Rational and
// tableau-Rational on ~200 seeded small programs.
#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace flowsched {
namespace {

TEST(SimplexRevised, AgreesWithTableauOnBasics) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> obj 12.
  LpProblemD lp;
  const int x = lp.add_var(3.0);
  const int y = lp.add_var(2.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLe, 4.0);
  lp.add_constraint({{x, 1.0}, {y, 3.0}}, Relation::kLe, 6.0);
  const auto revised = lp.solve();
  const auto tableau = lp.solve_tableau();
  ASSERT_EQ(revised.status, LpStatus::kOptimal);
  ASSERT_EQ(tableau.status, LpStatus::kOptimal);
  EXPECT_NEAR(revised.objective, tableau.objective, 1e-9);
  EXPECT_NEAR(revised.x[0], 4.0, 1e-9);
}

TEST(SimplexRevised, BealeCyclingProgramTerminates) {
  // Beale (1955): the classic program on which Dantzig pricing with naive
  // tie-breaking cycles forever. The degeneracy-streak Bland fallback must
  // terminate it at the optimum (x3 = 1, objective 1/20).
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

TEST(SimplexRevisedExact, BealeCyclingProgramTerminatesExactly) {
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

TEST(SimplexRevised, MassivelyDegenerateProgramTerminates) {
  // 24 copies of the same constraint make nearly every pivot degenerate;
  // the solver must ride the Bland fallback to the optimum.
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

TEST(SimplexRevised, DetectsInfeasibility) {
  LpProblemD lp;
  const int x = lp.add_var(1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kLe, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kGe, 2.0);
  EXPECT_EQ(lp.solve().status, LpStatus::kInfeasible);
}

TEST(SimplexRevised, DetectsUnboundedness) {
  LpProblemD lp;
  const int x = lp.add_var(1.0);
  const int y = lp.add_var(0.0);
  lp.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kLe, 1.0);
  EXPECT_EQ(lp.solve().status, LpStatus::kUnbounded);
}

TEST(SimplexRevisedExact, InfeasibleAndEqualityPrograms) {
  LpProblemQ lp;
  const int x = lp.add_var(Rational(1));
  lp.add_constraint({{x, Rational(1)}}, Relation::kEq, Rational(1));
  lp.add_constraint({{x, Rational(1)}}, Relation::kEq, Rational(2));
  EXPECT_EQ(lp.solve().status, LpStatus::kInfeasible);

  LpProblemQ ok;
  const int a = ok.add_var(Rational(1));
  const int b = ok.add_var(Rational(0));
  ok.add_constraint({{a, Rational(1)}, {b, Rational(1)}}, Relation::kEq,
                    Rational(3));
  ok.add_constraint({{a, Rational(1)}}, Relation::kLe, Rational(2));
  const auto sol = ok.solve();
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_EQ(sol.x[0], Rational(2));
  EXPECT_EQ(sol.x[1], Rational(1));
}

TEST(SimplexRevised, PartialCrashBasisAndFallbackChain) {
  // -1 entries in a crash basis stand for "this row's slack/artificial", so
  // a partial start is legal; a rejected start falls back to the logical
  // basis and still reaches the optimum.
  LpProblemD lp;
  const int x = lp.add_var(3.0);
  const int y = lp.add_var(2.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLe, 4.0);
  lp.add_constraint({{x, 1.0}, {y, 3.0}}, Relation::kLe, 6.0);
  // x basic in row 0 (x = 4, feasible and already optimal), row 1 keeps its
  // slack.
  const auto crashed = lp.solve(std::vector<int>{x, -1});
  ASSERT_EQ(crashed.status, LpStatus::kOptimal);
  EXPECT_NEAR(crashed.objective, 12.0, 1e-9);
  EXPECT_EQ(crashed.iterations, 0u);
  // Wrong size, out of range, duplicate, and primal infeasible (x basic in
  // row 1 gives x = 6 > 4) starts are all rejected silently.
  for (const std::vector<int>& rejected :
       {std::vector<int>{}, std::vector<int>{0, 99}, std::vector<int>{1, 1},
        std::vector<int>{-1, x}}) {
    const auto sol = lp.solve(rejected);
    ASSERT_EQ(sol.status, LpStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 12.0, 1e-9);
  }
}

// ---- Randomized cross-check ------------------------------------------------

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

TEST(SimplexRevised, RandomProgramsAgreeAcrossSolversAndScalars) {
  int optimal = 0;
  int infeasible = 0;
  int unbounded = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(9000 + seed);
    RandomLp lp = random_lp(rng);
    const auto revised_d = lp.as_double.solve();
    const auto tableau_d = lp.as_double.solve_tableau();
    const auto revised_q = lp.as_exact.solve();
    const auto tableau_q = lp.as_exact.solve_tableau();

    ASSERT_EQ(revised_q.status, tableau_q.status) << "seed " << seed;
    ASSERT_EQ(revised_d.status, tableau_q.status) << "seed " << seed;
    ASSERT_EQ(tableau_d.status, tableau_q.status) << "seed " << seed;
    switch (tableau_q.status) {
      case LpStatus::kOptimal: {
        ++optimal;
        // Exact arithmetic must agree exactly; doubles to 1e-7 relative.
        EXPECT_EQ(revised_q.objective, tableau_q.objective) << "seed " << seed;
        const double exact = tableau_q.objective.to_double();
        const double scale = 1.0 + std::abs(exact);
        EXPECT_NEAR(revised_d.objective, exact, 1e-7 * scale)
            << "seed " << seed;
        EXPECT_NEAR(tableau_d.objective, exact, 1e-7 * scale)
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

}  // namespace
}  // namespace flowsched
