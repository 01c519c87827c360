// Proposition 1: FIFO(I) = EFT(I) on every instance of P|online-r_i|Fmax
// when both use the same tie-break policy. FIFO here is a genuine
// discrete-event queue simulation and EFT an immediate-dispatch rule, so
// schedule-for-schedule equality is a strong cross-check of both.
#include <gtest/gtest.h>

#include "sched/engine.hpp"
#include "sched/fifo.hpp"
#include "workload/generator.hpp"

namespace flowsched {
namespace {

void expect_same_schedule(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.instance().n(), b.instance().n());
  for (int i = 0; i < a.instance().n(); ++i) {
    EXPECT_EQ(a.machine(i), b.machine(i)) << "mu differs at task " << i;
    EXPECT_NEAR(a.start(i), b.start(i), 1e-9) << "sigma differs at task " << i;
  }
}

struct EquivalenceCase {
  int m;
  int n;
  bool unit;
  TieBreakKind tie;
  std::uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os, const EquivalenceCase& c) {
    return os << "m" << c.m << "_n" << c.n << (c.unit ? "_unit_" : "_")
              << to_string(c.tie) << "_seed" << c.seed;
  }
};

class Prop1Equivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(Prop1Equivalence, FifoEqualsEft) {
  const auto param = GetParam();
  Rng rng(param.seed);
  RandomInstanceOptions opts;
  opts.m = param.m;
  opts.n = param.n;
  opts.unit_tasks = param.unit;
  opts.max_release = param.n / 2.0;
  const auto inst = random_instance(opts, rng);

  const auto fifo = fifo_schedule(inst, param.tie, /*seed=*/7);
  EftDispatcher eft(param.tie, /*seed=*/7);
  const auto eft_sched = run_dispatcher(inst, eft);

  EXPECT_TRUE(fifo.validate().ok());
  EXPECT_TRUE(eft_sched.validate().ok());
  expect_same_schedule(fifo, eft_sched);
  EXPECT_NEAR(fifo.max_flow(), eft_sched.max_flow(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, Prop1Equivalence,
    ::testing::Values(
        EquivalenceCase{1, 40, false, TieBreakKind::kMin, 1},
        EquivalenceCase{2, 60, false, TieBreakKind::kMin, 2},
        EquivalenceCase{3, 80, false, TieBreakKind::kMin, 3},
        EquivalenceCase{5, 100, false, TieBreakKind::kMin, 4},
        EquivalenceCase{8, 200, false, TieBreakKind::kMin, 5},
        EquivalenceCase{3, 80, false, TieBreakKind::kMax, 6},
        EquivalenceCase{5, 120, false, TieBreakKind::kMax, 7},
        EquivalenceCase{4, 100, true, TieBreakKind::kMin, 8},
        EquivalenceCase{4, 100, true, TieBreakKind::kMax, 9},
        EquivalenceCase{6, 150, true, TieBreakKind::kMin, 10}));

// With the Rand tie-break, equality holds because FIFO and EFT consult the
// tie-break on the *same* candidate sets in the same order (Proposition 1's
// proof); seeding both identically must therefore reproduce the schedule.
TEST(Prop1Equivalence, RandTieBreakWithSharedSeed) {
  Rng rng(11);
  RandomInstanceOptions opts;
  opts.m = 4;
  opts.n = 120;
  const auto inst = random_instance(opts, rng);

  const auto fifo = fifo_schedule(inst, TieBreakKind::kRand, 1234);
  EftDispatcher eft(TieBreakKind::kRand, 1234);
  const auto eft_sched = run_dispatcher(inst, eft);
  expect_same_schedule(fifo, eft_sched);
}

// Simultaneous releases exercise the tie-break-heavy path: many machines
// idle at once, several tasks entering the queue together.
TEST(Prop1Equivalence, BurstArrivals) {
  std::vector<std::pair<double, double>> pairs;
  for (int burst = 0; burst < 5; ++burst) {
    for (int i = 0; i < 7; ++i) {
      pairs.emplace_back(burst * 3.0, 1.0 + 0.5 * (i % 3));
    }
  }
  const auto inst = Instance::unrestricted(4, std::move(pairs));
  for (auto tie : {TieBreakKind::kMin, TieBreakKind::kMax}) {
    const auto fifo = fifo_schedule(inst, tie);
    EftDispatcher eft(tie);
    const auto eft_sched = run_dispatcher(inst, eft);
    expect_same_schedule(fifo, eft_sched);
  }
}

// Corollary of Proposition 1 + Theorem 1: both algorithms share the same
// Fmax, and it never exceeds (3 - 2/m) times the certified lower bound.
TEST(Prop1Equivalence, SharedFmaxWithinCompetitiveBound) {
  Rng rng(13);
  for (int trial = 0; trial < 5; ++trial) {
    RandomInstanceOptions opts;
    opts.m = 4;
    opts.n = 60;
    const auto inst = random_instance(opts, rng);
    const auto fifo = fifo_schedule(inst);
    EftDispatcher eft(TieBreakKind::kMin);
    const auto eft_sched = run_dispatcher(inst, eft);
    EXPECT_NEAR(fifo.max_flow(), eft_sched.max_flow(), 1e-9);
  }
}

}  // namespace
}  // namespace flowsched
