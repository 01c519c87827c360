#include "sched/engine.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace flowsched {
namespace {

TEST(OnlineEngine, TracksCompletionsIncrementally) {
  EftDispatcher eft(TieBreakKind::kMin);
  OnlineEngine engine(2, eft);
  const auto a0 = engine.release({.release = 0, .proc = 2, .eligible = {}});
  EXPECT_EQ(a0.machine, 0);
  EXPECT_DOUBLE_EQ(a0.start, 0.0);
  EXPECT_DOUBLE_EQ(engine.completions()[0], 2.0);

  const auto a1 = engine.release({.release = 0, .proc = 1, .eligible = {}});
  EXPECT_EQ(a1.machine, 1);
  const auto a2 = engine.release({.release = 0, .proc = 1, .eligible = {}});
  EXPECT_EQ(a2.machine, 1);  // M1 finishes at 1 < M0's 2
  EXPECT_DOUBLE_EQ(a2.start, 1.0);
  EXPECT_EQ(engine.released(), 3);
  EXPECT_EQ(engine.count_of(1), 2);
}

TEST(OnlineEngine, RejectsDecreasingReleases) {
  EftDispatcher eft(TieBreakKind::kMin);
  OnlineEngine engine(2, eft);
  engine.release({.release = 5, .proc = 1, .eligible = {}});
  EXPECT_THROW(engine.release({.release = 4, .proc = 1, .eligible = {}}),
               std::invalid_argument);
}

TEST(OnlineEngine, RejectsBadTasks) {
  EftDispatcher eft(TieBreakKind::kMin);
  OnlineEngine engine(2, eft);
  EXPECT_THROW(engine.release({.release = 0, .proc = 0, .eligible = {}}),
               std::invalid_argument);
  EXPECT_THROW(
      engine.release({.release = 0, .proc = 1, .eligible = ProcSet({4})}),
      std::invalid_argument);
}

TEST(OnlineEngine, EmptyEligibleMeansAllMachines) {
  EftDispatcher eft(TieBreakKind::kMax);
  OnlineEngine engine(3, eft);
  const auto a = engine.release({.release = 0, .proc = 1, .eligible = {}});
  EXPECT_EQ(a.machine, 2);  // Max tie-break over all three idle machines
}

TEST(OnlineEngine, ProfileMatchesDefinition) {
  EftDispatcher eft(TieBreakKind::kMin);
  OnlineEngine engine(2, eft);
  engine.release({.release = 0, .proc = 3, .eligible = ProcSet({0})});
  engine.release({.release = 0, .proc = 1, .eligible = ProcSet({1})});
  const auto w = engine.profile(1.0);
  EXPECT_DOUBLE_EQ(w[0], 2.0);
  EXPECT_DOUBLE_EQ(w[1], 0.0);
}

TEST(OnlineEngine, SnapshotIsSelfContainedAndValid) {
  EftDispatcher eft(TieBreakKind::kMin);
  OnlineEngine engine(3, eft);
  for (int t = 0; t < 5; ++t) {
    engine.release({.release = static_cast<double>(t),
                    .proc = 2.0,
                    .eligible = ProcSet({t % 3, (t + 1) % 3})});
  }
  const Schedule snap = engine.snapshot();
  EXPECT_EQ(snap.instance().n(), 5);
  EXPECT_TRUE(snap.validate().ok()) << snap.validate().str();
  // The snapshot agrees with the engine's record.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(snap.machine(i), engine.machine_of(i));
    EXPECT_DOUBLE_EQ(snap.start(i), engine.start_of(i));
    EXPECT_DOUBLE_EQ(snap.completion(i), engine.completion_of(i));
  }
}

TEST(OnlineEngine, RunDispatcherMatchesIncremental) {
  std::vector<Task> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.push_back({.release = i * 0.5,
                     .proc = 1.0 + (i % 3),
                     .eligible = ProcSet({i % 4, (i + 2) % 4})});
  }
  const Instance inst(4, tasks);

  EftDispatcher eft1(TieBreakKind::kMin);
  const auto batch = run_dispatcher(inst, eft1);

  EftDispatcher eft2(TieBreakKind::kMin);
  OnlineEngine engine(4, eft2);
  for (const auto& t : inst.tasks()) engine.release(t);

  for (int i = 0; i < inst.n(); ++i) {
    EXPECT_EQ(batch.machine(i), engine.machine_of(i));
    EXPECT_DOUBLE_EQ(batch.start(i), engine.start_of(i));
  }
}

TEST(OnlineEngine, ThrowsOnNonPositiveMachineCount) {
  EftDispatcher eft(TieBreakKind::kMin);
  EXPECT_THROW(OnlineEngine(0, eft), std::invalid_argument);
}

// The engine core settles queue depths from its calendar of completion
// events. This wrapper routes every choice through JSQ while checking the
// depths the engine supplies against an eager brute-force recount over the
// full assignment history.
class QueueAuditJsq final : public Dispatcher {
 public:
  explicit QueueAuditJsq(TieBreakKind kind) : jsq_(kind) {}

  void reset(int m) override {
    jsq_.reset(m);
    history_.clear();
  }

  bool needs_queue_depths() const override { return true; }

  int dispatch(const Task& t, const MachineState& state) override {
    for (int j : t.eligible.machines()) {
      int expected = 0;
      for (const auto& [machine, finish] : history_) {
        // A task finishing exactly at the release instant counts as done,
        // matching the eager sweep's `finish <= r` condition.
        if (machine == j && finish > t.release) ++expected;
      }
      EXPECT_EQ(state.queued[static_cast<std::size_t>(j)], expected)
          << "machine " << j << " at release " << t.release << " (task "
          << history_.size() << ")";
    }
    const int u = jsq_.dispatch(t, state);
    const double start =
        std::max(t.release, state.completion[static_cast<std::size_t>(u)]);
    history_.emplace_back(u, start + t.proc);
    return u;
  }

  std::string name() const override { return "QueueAuditJsq"; }

 private:
  JsqDispatcher jsq_;
  std::vector<std::pair<int, double>> history_;
};

TEST(OnlineEngine, QueueDepthsEqualEagerCountOnInterleavedReleases) {
  QueueAuditJsq audit(TieBreakKind::kMin);
  OnlineEngine engine(4, audit);
  // Interleaved restricted releases: machines drop out of eligibility for
  // long stretches and several of their tasks finish before they reappear.
  const std::vector<Task> tasks{
      {.release = 0.0, .proc = 3.0, .eligible = ProcSet({0, 1})},
      {.release = 0.0, .proc = 1.0, .eligible = ProcSet({1, 2})},
      {.release = 0.5, .proc = 2.0, .eligible = ProcSet({2, 3})},
      {.release = 1.0, .proc = 1.0, .eligible = ProcSet({1, 2})},
      {.release = 1.0, .proc = 4.0, .eligible = ProcSet({0})},
      {.release = 2.5, .proc = 1.0, .eligible = ProcSet({0, 1, 2, 3})},
      {.release = 3.0, .proc = 0.5, .eligible = ProcSet({1, 3})},
      {.release = 3.0, .proc = 1.0, .eligible = ProcSet({0, 1})},
      {.release = 7.0, .proc = 1.0, .eligible = ProcSet({0, 1, 2, 3})},
      {.release = 7.0, .proc = 2.0, .eligible = ProcSet({0, 2})},
      {.release = 12.0, .proc = 1.0, .eligible = ProcSet({0, 1, 2, 3})},
  };
  for (const auto& t : tasks) engine.release(t);
  EXPECT_EQ(engine.released(), static_cast<int>(tasks.size()));
}

TEST(OnlineEngine, QueueDepthsEqualEagerCountOnRandomWorkload) {
  QueueAuditJsq audit(TieBreakKind::kMin);
  OnlineEngine engine(6, audit);
  Rng rng(20260805);
  double release = 0.0;
  for (int i = 0; i < 400; ++i) {
    release += rng.exponential(4.0);
    const int lo = static_cast<int>(rng.uniform_int(0, 5));
    const int size = static_cast<int>(rng.uniform_int(1, 3));
    engine.release({.release = release,
                    .proc = rng.uniform(0.2, 2.0),
                    .eligible = ProcSet::ring_interval(lo, size, 6)});
  }
  EXPECT_EQ(engine.released(), 400);
}

TEST(OnlineEngine, JsqScheduleUnchangedByEagerCountAudit) {
  // The audited JSQ (engine depths, checked against the eager count) and
  // the plain JSQ must produce identical schedules on a shared workload.
  std::vector<Task> tasks;
  Rng rng(99);
  double release = 0.0;
  for (int i = 0; i < 200; ++i) {
    release += rng.exponential(3.0);
    const int lo = static_cast<int>(rng.uniform_int(0, 4));
    tasks.push_back({.release = release,
                     .proc = 1.0,
                     .eligible = ProcSet::ring_interval(lo, 2, 5)});
  }
  const Instance inst(5, tasks);

  JsqDispatcher plain(TieBreakKind::kMin);
  const auto plain_sched = run_dispatcher(inst, plain);
  QueueAuditJsq audited(TieBreakKind::kMin);
  const auto audited_sched = run_dispatcher(inst, audited);
  for (int i = 0; i < inst.n(); ++i) {
    EXPECT_EQ(plain_sched.machine(i), audited_sched.machine(i)) << "task " << i;
    EXPECT_DOUBLE_EQ(plain_sched.start(i), audited_sched.start(i));
  }
}

}  // namespace
}  // namespace flowsched
