// Fault-injection subsystem: FaultPlan timelines, engine kill/requeue/park
// semantics per recovery policy, the fault-mode auditor, the hardened
// runner (error context, watchdog), and sweep checkpointing (docs/faults.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/audit.hpp"
#include "fault/plan.hpp"
#include "fault/plan_io.hpp"
#include "fault/recovery.hpp"
#include "io/instance_io.hpp"
#include "model/instance.hpp"
#include "runner/checkpoint.hpp"
#include "runner/experiment.hpp"
#include "sched/dispatchers.hpp"
#include "sched/engine.hpp"
#include "util/rng.hpp"

namespace flowsched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- FaultPlan timelines ----------------------------------------------------

TEST(FaultPlan, QueriesFollowTheTimeline) {
  FaultPlan plan(2);
  plan.add_down(0, 1.0, 2.5);
  plan.add_down(0, 4.0, kInf);
  EXPECT_FALSE(plan.fault_free());
  EXPECT_EQ(plan.crash_count(), 2);

  EXPECT_TRUE(plan.is_up(0, 0.0));
  EXPECT_FALSE(plan.is_up(0, 1.0));   // [from, to) is closed at from
  EXPECT_FALSE(plan.is_up(0, 2.0));
  EXPECT_TRUE(plan.is_up(0, 2.5));    // ... and open at to
  EXPECT_FALSE(plan.is_up(0, 1e9));   // never recovers after 4
  EXPECT_TRUE(plan.is_up(1, 1.5));    // other machine untouched

  EXPECT_DOUBLE_EQ(plan.next_up(0, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(plan.next_up(0, 1.0), 2.5);
  EXPECT_EQ(plan.next_up(0, 5.0), kInf);
  EXPECT_DOUBLE_EQ(plan.next_down(0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(plan.next_down(0, 3.0), 4.0);
  EXPECT_EQ(plan.next_down(1, 0.0), kInf);

  EXPECT_DOUBLE_EQ(plan.downtime(0, 0.0, 3.0), 1.5);
  EXPECT_DOUBLE_EQ(plan.downtime(0, 2.0, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(plan.downtime(1, 0.0, 3.0), 0.0);
}

TEST(FaultPlan, RejectsUnorderedOrTouchingIntervals) {
  FaultPlan plan(1);
  plan.add_down(0, 1.0, 2.0);
  EXPECT_THROW(plan.add_down(0, 0.5, 0.75), std::invalid_argument);
  EXPECT_THROW(plan.add_down(0, 1.5, 3.0), std::invalid_argument);
  EXPECT_THROW(plan.add_down(0, 2.0, 3.0), std::invalid_argument);  // touches
  plan.add_down(0, 2.5, 3.0);  // a gap is fine
}

TEST(FaultPlan, RandomIsAPureFunctionOfSeedAndGridAligned) {
  FaultModelConfig model;
  model.mean_up = 4.0;
  model.mean_down = 1.0;
  model.horizon = 64.0;
  Rng a(99), b(99);
  const FaultPlan pa = FaultPlan::random(6, model, a);
  const FaultPlan pb = FaultPlan::random(6, model, b);
  EXPECT_EQ(pa.str(), pb.str());
  EXPECT_GT(pa.crash_count(), 0);
  for (int j = 0; j < pa.m(); ++j) {
    for (const DownInterval& d : pa.downs(j)) {
      EXPECT_LT(d.from, model.horizon);
      // Every boundary is a multiple of the dyadic grid — exact doubles.
      EXPECT_DOUBLE_EQ(d.from / model.grid,
                       std::floor(d.from / model.grid + 0.5));
      EXPECT_DOUBLE_EQ(d.to / model.grid, std::floor(d.to / model.grid + 0.5));
    }
  }
}

TEST(FaultPlan, NonPositiveMeanUpMeansFaultFree) {
  FaultModelConfig model;
  model.mean_up = 0.0;
  Rng rng(1);
  EXPECT_TRUE(FaultPlan::random(4, model, rng).fault_free());
  model.mean_up = 16.0;
  model.horizon = 0.0;
  EXPECT_TRUE(FaultPlan::random(4, model, rng).fault_free());
}

TEST(FaultPlan, RandomRejectsNonFiniteParameters) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto message = [](const FaultModelConfig& model) -> std::string {
    Rng rng(1);
    try {
      FaultPlan::random(2, model, rng);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no throw";
  };
  FaultModelConfig model;
  model.horizon = kInf;
  EXPECT_EQ(message(model), "FaultPlan: horizon must be finite");
  model.horizon = nan;
  EXPECT_EQ(message(model), "FaultPlan: horizon must be finite");
  model = FaultModelConfig{};
  model.grid = kInf;
  EXPECT_EQ(message(model), "FaultPlan: grid must be finite");
  model.grid = nan;
  EXPECT_EQ(message(model), "FaultPlan: grid must be finite");
  model = FaultModelConfig{};
  model.mean_up = nan;
  EXPECT_EQ(message(model), "FaultPlan: mean_up must not be NaN");
  model = FaultModelConfig{};
  model.mean_down = nan;
  EXPECT_EQ(message(model), "FaultPlan: mean_down must not be NaN");
}

TEST(FaultPlan, RandomRejectsNegativeMeanDownUpFront) {
  // The horizon ends before the first crash could be drawn, so no repair
  // time is ever sampled: the check must not depend on one.
  FaultModelConfig model;
  model.mean_up = 64.0;
  model.horizon = 0.125;
  for (const double mean_down : {-1.0, -0.0}) {
    model.mean_down = mean_down;
    Rng rng(3);
    try {
      FaultPlan::random(4, model, rng);
      ADD_FAILURE() << "mean_down " << mean_down << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "FaultPlan: mean_down must not be negative");
    }
  }
  // Zero stays valid: every repair takes the minimum of one grid step.
  model.mean_down = 0.0;
  model.mean_up = 1.0;
  model.horizon = 16.0;
  Rng rng(3);
  const FaultPlan plan = FaultPlan::random(2, model, rng);
  ASSERT_GT(plan.crash_count(), 0);
  for (const DownInterval& d : plan.downs(0)) EXPECT_EQ(d.to - d.from, model.grid);
}

// The timeline queries as front-to-back scans: the reference the binary
// searches in FaultPlan must agree with bit for bit.
bool scan_is_up(const std::vector<DownInterval>& downs, double t) {
  for (const DownInterval& d : downs) {
    if (t < d.from) return true;
    if (t < d.to) return false;
  }
  return true;
}

double scan_next_up(const std::vector<DownInterval>& downs, double t) {
  for (const DownInterval& d : downs) {
    if (t < d.from) return t;
    if (t < d.to) return d.to;
  }
  return t;
}

double scan_next_down(const std::vector<DownInterval>& downs, double t) {
  for (const DownInterval& d : downs)
    if (d.from >= t) return d.from;
  return kInf;
}

double scan_downtime(const std::vector<DownInterval>& downs, double t0,
                     double t1) {
  double total = 0;
  for (const DownInterval& d : downs) {
    const double lo = std::max(t0, d.from);
    const double hi = std::min(t1, d.to);
    if (hi > lo) total += hi - lo;
    if (d.from >= t1) break;
  }
  return total;
}

// Bitwise equality, so NaN == NaN and -0.0 != 0.0.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_queries_match_scan(const FaultPlan& plan, int machine, double t) {
  const auto& downs = plan.downs(machine);
  EXPECT_EQ(plan.is_up(machine, t), scan_is_up(downs, t))
      << "machine " << machine << " t=" << t;
  EXPECT_TRUE(same_bits(plan.next_up(machine, t), scan_next_up(downs, t)))
      << "next_up machine " << machine << " t=" << t;
  EXPECT_TRUE(same_bits(plan.next_down(machine, t), scan_next_down(downs, t)))
      << "next_down machine " << machine << " t=" << t;
}

void expect_downtime_matches_scan(const FaultPlan& plan, int machine,
                                  double t0, double t1) {
  EXPECT_TRUE(same_bits(plan.downtime(machine, t0, t1),
                        scan_downtime(plan.downs(machine), t0, t1)))
      << "downtime machine " << machine << " [" << t0 << ", " << t1 << ")";
}

TEST(FaultPlan, QueriesMatchTheLinearScanOnRandomPlans) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double mean_up : {0.5, 4.0, 24.0}) {
    FaultModelConfig model;
    model.mean_up = mean_up;
    model.mean_down = 2.0;
    model.horizon = 256.0;
    Rng rng(static_cast<std::uint64_t>(mean_up * 8) + 17);
    const FaultPlan plan = FaultPlan::random(4, model, rng);
    ASSERT_GT(plan.crash_count(), 0);
    for (int j = 0; j < plan.m(); ++j) {
      // Every boundary, half a grid step either side, random instants, and
      // the non-finite extremes.
      std::vector<double> times = {-1.0, 0.0, model.horizon + 8, -kInf, kInf,
                                   nan};
      for (const DownInterval& d : plan.downs(j)) {
        for (const double b : {d.from, d.to}) {
          times.push_back(b);
          times.push_back(b - model.grid / 2);
          times.push_back(b + model.grid / 2);
        }
      }
      for (int r = 0; r < 200; ++r)
        times.push_back(rng.uniform(-1.0, model.horizon + 8));
      for (const double t : times) expect_queries_match_scan(plan, j, t);
      for (std::size_t r = 0; r + 1 < times.size(); ++r)
        expect_downtime_matches_scan(plan, j, times[r], times[r + 1]);
    }
  }
}

TEST(FaultPlan, QueryEdgeCasesMatchTheLinearScan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  FaultPlan plan(3);
  plan.add_down(0, 1.0, 2.0);
  plan.add_down(0, 3.0, 5.0);
  plan.add_down(0, 8.0, kInf);  // never recovers
  plan.add_down(2, 0.0, 0.5);   // machine 1 has no intervals

  // t == from is down, t == to is up.
  EXPECT_FALSE(plan.is_up(0, 3.0));
  EXPECT_EQ(plan.next_up(0, 3.0), 5.0);
  EXPECT_EQ(plan.next_down(0, 3.0), 3.0);
  EXPECT_TRUE(plan.is_up(0, 5.0));
  EXPECT_EQ(plan.next_up(0, 5.0), 5.0);
  EXPECT_EQ(plan.next_down(0, 5.0), 8.0);
  // Before the first interval and after the last finite one.
  EXPECT_TRUE(plan.is_up(0, 0.5));
  EXPECT_EQ(plan.next_down(0, 0.5), 1.0);
  EXPECT_TRUE(plan.is_up(2, 1.0));
  EXPECT_EQ(plan.next_up(2, 1.0), 1.0);
  EXPECT_EQ(plan.next_down(2, 1.0), kInf);
  // Inside the last interval, which never ends.
  EXPECT_FALSE(plan.is_up(0, 100.0));
  EXPECT_EQ(plan.next_up(0, 100.0), kInf);
  EXPECT_EQ(plan.next_down(0, 100.0), kInf);
  EXPECT_EQ(plan.downtime(0, 4.0, kInf), kInf);
  EXPECT_EQ(plan.downtime(0, 0.0, 10.0), 5.0);
  // A machine with no intervals.
  EXPECT_TRUE(plan.is_up(1, 2.0));
  EXPECT_EQ(plan.next_up(1, 2.0), 2.0);
  EXPECT_EQ(plan.next_down(1, 2.0), kInf);
  EXPECT_EQ(plan.downtime(1, 0.0, 10.0), 0.0);
  // An empty or reversed downtime window.
  EXPECT_EQ(plan.downtime(0, 4.0, 4.0), 0.0);
  EXPECT_EQ(plan.downtime(0, 4.0, 1.0), 0.0);
  // NaN: the scan finds no interval, so the machine is up, next_up returns
  // t and there is no next crash. A lower_bound on `from < t` would return
  // the first interval's start instead.
  EXPECT_TRUE(plan.is_up(0, nan));
  EXPECT_TRUE(std::isnan(plan.next_up(0, nan)));
  EXPECT_EQ(plan.next_down(0, nan), kInf);
  EXPECT_EQ(plan.downtime(0, nan, 10.0), 0.0);
  EXPECT_EQ(plan.downtime(0, 0.0, nan), 0.0);

  const std::vector<double> times = {-kInf, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0,
                                     2.5,   3.0,  4.0, 5.0, 6.0, 8.0, 9.0,
                                     100.0, kInf, nan};
  for (int j = 0; j < plan.m(); ++j) {
    for (const double t0 : times) {
      expect_queries_match_scan(plan, j, t0);
      for (const double t1 : times) expect_downtime_matches_scan(plan, j, t0, t1);
    }
  }
}

// FaultPlan::Cursor against the plan's own binary searches. One cursor
// serves every query of a plan, each asks one of the three questions, and
// the queries come shuffled, ascending and descending, so stale windows,
// misses and hits are all exercised.
TEST(FaultPlanCursor, MatchesThePlanOnRandomPlansInAnyQueryOrder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double grid = 0.125;
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    // Machine 0 has no intervals; the others get up to 8, and about half
    // of them end in a down interval that never recovers.
    FaultPlan plan(6);
    for (int j = 1; j < plan.m(); ++j) {
      const int count = static_cast<int>(rng.uniform_int(0, 8));
      double t = static_cast<double>(rng.uniform_int(0, 4)) * grid;
      for (int c = 0; c < count; ++c) {
        const double from = t;
        const double to = from + static_cast<double>(rng.uniform_int(1, 24)) * grid;
        if (c + 1 == count && rng.bernoulli(0.5)) {
          plan.add_down(j, from, kInf);
          break;
        }
        plan.add_down(j, from, to);
        t = to + static_cast<double>(rng.uniform_int(1, 24)) * grid;
      }
    }
    std::vector<std::pair<int, double>> queries;
    for (int j = 0; j < plan.m(); ++j) {
      for (const double t : {-kInf, -1.0, 0.0, 100.0, kInf, nan})
        queries.emplace_back(j, t);
      for (const DownInterval& d : plan.downs(j)) {
        for (const double b : {d.from, d.to}) {
          queries.emplace_back(j, b);  // exactly at a boundary
          queries.emplace_back(j, b - grid / 2);
          queries.emplace_back(j, b + grid / 2);
        }
      }
      for (int r = 0; r < 30; ++r) queries.emplace_back(j, rng.uniform(-1.0, 100.0));
    }
    for (int order = 0; order < 3; ++order) {
      if (order == 0) {
        rng.shuffle(queries);
      } else {
        // NaN sorts unpredictably; keep it last in both directions.
        std::stable_sort(queries.begin(), queries.end(),
                         [order](const auto& a, const auto& b) {
                           if (std::isnan(a.second) || std::isnan(b.second))
                             return !std::isnan(a.second) && std::isnan(b.second);
                           return order == 1 ? a.second < b.second
                                             : a.second > b.second;
                         });
      }
      FaultPlan::Cursor cursor(plan);
      for (const auto& [j, t] : queries) {
        switch (rng.uniform_int(0, 2)) {
          case 0:
            EXPECT_EQ(cursor.is_up(j, t), plan.is_up(j, t))
                << "is_up machine " << j << " t=" << t;
            break;
          case 1:
            EXPECT_TRUE(same_bits(cursor.next_up(j, t), plan.next_up(j, t)))
                << "next_up machine " << j << " t=" << t;
            break;
          default:
            EXPECT_TRUE(same_bits(cursor.next_down(j, t), plan.next_down(j, t)))
                << "next_down machine " << j << " t=" << t;
        }
      }
    }
  }
}

TEST(FaultPlanCursor, AnswersEdgeCasesLikeThePlan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  FaultPlan plan(3);
  plan.add_down(0, 1.0, 2.0);
  plan.add_down(0, 3.0, 5.0);
  plan.add_down(0, 8.0, kInf);  // never recovers
  FaultPlan::Cursor cursor(plan);
  // Down at from, up at to, inside and past the final interval.
  EXPECT_FALSE(cursor.is_up(0, 3.0));
  EXPECT_EQ(cursor.next_down(0, 3.0), 3.0);
  EXPECT_EQ(cursor.next_down(0, 4.0), 8.0);  // down window, past its start
  EXPECT_EQ(cursor.next_up(0, 4.0), 5.0);
  EXPECT_TRUE(cursor.is_up(0, 5.0));
  EXPECT_EQ(cursor.next_down(0, 5.0), 8.0);
  EXPECT_EQ(cursor.next_up(0, 100.0), kInf);
  EXPECT_EQ(cursor.next_down(0, 100.0), kInf);
  EXPECT_TRUE(cursor.is_up(0, kInf));
  // Back in time after the window moved forward.
  EXPECT_TRUE(cursor.is_up(0, 0.5));
  EXPECT_EQ(cursor.next_down(0, 0.5), 1.0);
  // NaN: up, next_up returns t, no next crash.
  EXPECT_TRUE(cursor.is_up(0, nan));
  EXPECT_TRUE(std::isnan(cursor.next_up(0, nan)));
  EXPECT_EQ(cursor.next_down(0, nan), kInf);
  // A machine with no intervals; out-of-range machines throw.
  EXPECT_TRUE(cursor.is_up(1, 2.0));
  EXPECT_EQ(cursor.next_down(1, 2.0), kInf);
  EXPECT_THROW(cursor.is_up(3, 0.0), std::invalid_argument);
  EXPECT_THROW(cursor.next_up(-1, 0.0), std::invalid_argument);
}

TEST(FaultCase, SerializationRoundTrips) {
  Instance inst(3, {{0.0, 2.0, ProcSet({0, 1})}, {0.5, 1.0, ProcSet({2})}});
  FaultPlan plan(3);
  plan.add_down(0, 1.0, 2.5);
  plan.add_down(2, 0.25, kInf);
  RecoveryPolicy recovery;
  recovery.kind = RecoveryKind::kBackoff;
  recovery.max_retries = 3;
  recovery.jitter_seed = 77;

  const std::string text = fault_case_to_string(inst, plan, recovery);
  EXPECT_TRUE(has_fault_directives(text));
  const FaultCase fc = parse_fault_case(text);
  EXPECT_EQ(fc.instance.n(), 2);
  EXPECT_EQ(fc.plan.str(), plan.str());
  EXPECT_EQ(fc.recovery.kind, RecoveryKind::kBackoff);
  EXPECT_EQ(fc.recovery.max_retries, 3);
  EXPECT_EQ(fc.recovery.jitter_seed, 77u);
  EXPECT_EQ(fc.recovery.str(), recovery.str());

  EXPECT_FALSE(has_fault_directives(instance_to_string(inst)));
}

// parse_fault_case's error for `text`, or "" when it parses.
std::string fault_case_error(const std::string& text) {
  try {
    parse_fault_case(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(FaultCase, RecoveryDirectiveTakesNoneOrAllFiveParameters) {
  const std::string head = "machines 2\ntask 0 1 1,2\n";
  // No parameters: the policy defaults.
  const FaultCase bare = parse_fault_case(head + "recovery backoff\n");
  EXPECT_EQ(bare.recovery.kind, RecoveryKind::kBackoff);
  EXPECT_EQ(bare.recovery.str(), [] {
    RecoveryPolicy p;
    p.kind = RecoveryKind::kBackoff;
    return p.str();
  }());
  // All five.
  const FaultCase full =
      parse_fault_case(head + "recovery checkpoint 0 0.25 4 0 9\n");
  EXPECT_EQ(full.recovery.max_retries, 0);
  EXPECT_EQ(full.recovery.backoff_base, 0.25);
  EXPECT_EQ(full.recovery.backoff_cap, 4.0);
  EXPECT_EQ(full.recovery.jitter, 0.0);
  EXPECT_EQ(full.recovery.jitter_seed, 9u);

  // Every rejection names line 3, where the directive sits.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"recovery backoff 3 abc", "expected: recovery"},
      {"recovery backoff 3 0.5 8 1", "expected: recovery"},
      {"recovery backoff 3 0.5 8 1 7 extra", "expected: recovery"},
      {"recovery backoff -5 0.5 8 1 7", "max_retries must be >= 0"},
      {"recovery backoff 2.5 0.5 8 1 7", "bad recovery max_retries '2.5'"},
      {"recovery backoff 99999999999 0.5 8 1 7", "bad recovery max_retries"},
      {"recovery backoff 3 nan 8 1 7", "base must be finite and >= 0"},
      {"recovery backoff 3 0.5 -8 1 7", "cap must be finite and >= 0"},
      {"recovery backoff 3 0.5 inf 1 7", "cap must be finite and >= 0"},
      {"recovery backoff 3 0.5 8 -1 7", "jitter must be finite and >= 0"},
      {"recovery backoff 3 0.5 8 1e400 7", "bad recovery jitter '1e400'"},
      {"recovery backoff 3 0.5 8 1e300 7", "jitter exceeds 2^53 grid steps"},
      {"recovery backoff 3 0.5x 8 1 7", "bad recovery base '0.5x'"},
      {"recovery backoff 3 0.5 8 1 -7", "bad recovery seed '-7'"},
      {"recovery backoff 3 0.5 8 1 7x", "bad recovery seed '7x'"},
  };
  for (const auto& [line, what] : bad) {
    const std::string err = fault_case_error(head + line + "\n");
    EXPECT_NE(err.find("fault case line 3: "), std::string::npos)
        << line << " -> " << err;
    EXPECT_NE(err.find(what), std::string::npos) << line << " -> " << err;
  }
}

// --- Engine semantics under faults ------------------------------------------

Instance one_machine(double proc) { return Instance(1, {{0.0, proc, {}}}); }

TEST(FaultEngine, FaultFreePlanMatchesTheNormalPath) {
  std::vector<Task> tasks;
  Rng rng(7);
  for (int i = 0; i < 12; ++i) {
    const int a = static_cast<int>(rng() % 4);
    const int b = static_cast<int>(rng() % 4);
    tasks.push_back({0.25 * i, 0.5 + 0.125 * static_cast<double>(rng() % 8),
                     a == b ? ProcSet({a}) : ProcSet({a, b})});
  }
  const Instance inst(4, tasks);
  EftDispatcher eft_a(TieBreakKind::kMin);
  const Schedule reference = run_dispatcher(inst, eft_a);

  EftDispatcher eft_b(TieBreakKind::kMin);
  const FaultPlan plan(4);  // no faults scripted
  const OnlineEngine engine =
      run_dispatcher_faulty(inst, eft_b, plan, RecoveryPolicy{});
  const FaultStats& stats = engine.fault_log().stats();
  EXPECT_EQ(stats.completed, inst.n());
  EXPECT_EQ(stats.kills, 0);
  EXPECT_EQ(stats.parked, 0);
  for (int i = 0; i < inst.n(); ++i) {
    EXPECT_EQ(engine.fate_of(i), TaskFate::kCompleted);
    EXPECT_DOUBLE_EQ(engine.completion_of(i), reference.completion(i)) << i;
    EXPECT_EQ(engine.machine_of(i), reference.machine(i)) << i;
  }
}

TEST(FaultEngine, ImmediateRecoveryRedoesKilledWork) {
  FaultPlan plan(1);
  plan.add_down(0, 1.0, 1.5);
  EftDispatcher eft(TieBreakKind::kMin);
  const OnlineEngine engine =
      run_dispatcher_faulty(one_machine(2.0), eft, plan, RecoveryPolicy{});
  const FaultLog& log = engine.fault_log();

  // Attempt 0 runs [0, 1) and is killed; the immediate retry at t=1 finds
  // the machine still down and parks until 1.5; the rerun owes the full
  // p=2 again, so C = 3.5.
  EXPECT_EQ(engine.fate_of(0), TaskFate::kCompleted);
  EXPECT_DOUBLE_EQ(log.completion(0), 3.5);
  const auto attempts = log.attempts_of(0);
  ASSERT_EQ(attempts.size(), 3u);
  EXPECT_TRUE(attempts[0].killed);
  EXPECT_DOUBLE_EQ(attempts[0].end, 1.0);
  EXPECT_EQ(attempts[1].machine, -1);  // parked
  EXPECT_DOUBLE_EQ(attempts[1].end, 1.5);
  EXPECT_DOUBLE_EQ(attempts[2].start, 1.5);
  EXPECT_EQ(log.stats().kills, 1);
  EXPECT_EQ(log.stats().parked, 1);
  EXPECT_DOUBLE_EQ(log.stats().wasted_work, 1.0);
}

TEST(FaultEngine, CheckpointRecoveryRetainsCompletedWork) {
  FaultPlan plan(1);
  plan.add_down(0, 1.0, 1.5);
  RecoveryPolicy recovery;
  recovery.kind = RecoveryKind::kCheckpoint;
  EftDispatcher eft(TieBreakKind::kMin);
  const OnlineEngine engine =
      run_dispatcher_faulty(one_machine(2.0), eft, plan, recovery);
  const FaultLog& log = engine.fault_log();

  // The killed segment's one unit of work is retained: only the remaining
  // unit reruns after the repair, so C = 2.5 and nothing is wasted.
  EXPECT_DOUBLE_EQ(log.completion(0), 2.5);
  EXPECT_DOUBLE_EQ(log.stats().wasted_work, 0.0);
  double executed = 0;
  for (const FaultAttempt& a : log.attempts_of(0)) executed += a.work();
  EXPECT_DOUBLE_EQ(executed, 2.0);  // total machine time equals p exactly
}

TEST(FaultEngine, BackoffRetriesAtThePolicyInstant) {
  FaultPlan plan(1);
  plan.add_down(0, 1.0, 1.125);
  RecoveryPolicy recovery;
  recovery.kind = RecoveryKind::kBackoff;
  EftDispatcher eft(TieBreakKind::kMin);
  const OnlineEngine engine =
      run_dispatcher_faulty(one_machine(2.0), eft, plan, recovery);
  const auto attempts = engine.fault_log().attempts_of(0);
  ASSERT_GE(attempts.size(), 2u);
  // The retry is scheduled exactly where the pure policy function says —
  // this is the contract the [fault-backoff] audit recomputes.
  EXPECT_DOUBLE_EQ(attempts[1].scheduled, recovery.retry_time(0, 0, 1.0));
  EXPECT_GE(attempts[1].scheduled, 1.0 + recovery.backoff_base);
}

TEST(FaultEngine, WholeSetOutageParksInsteadOfDropping) {
  FaultPlan plan(2);
  plan.add_down(0, 0.0, 4.0);
  plan.add_down(1, 0.0, 4.0);
  EftDispatcher eft(TieBreakKind::kMin);
  const Instance inst(2, {{0.0, 1.0, {}}});
  const OnlineEngine engine =
      run_dispatcher_faulty(inst, eft, plan, RecoveryPolicy{});
  const FaultLog& log = engine.fault_log();
  EXPECT_EQ(engine.fate_of(0), TaskFate::kCompleted);
  EXPECT_DOUBLE_EQ(log.completion(0), 5.0);  // parked [0,4), then p=1
  ASSERT_EQ(log.attempts_of(0).size(), 2u);
  EXPECT_EQ(log.attempts_of(0)[0].machine, -1);
  EXPECT_EQ(log.stats().parked, 1);
  EXPECT_EQ(log.stats().dropped, 0);
}

TEST(FaultEngine, StrandedTaskIsDroppedNotLost) {
  FaultPlan plan(1);
  plan.add_down(0, 0.5, kInf);
  EftDispatcher eft(TieBreakKind::kMin);
  const OnlineEngine engine =
      run_dispatcher_faulty(one_machine(2.0), eft, plan, RecoveryPolicy{});
  // Killed at 0.5, and the only machine never recovers: explicit drop.
  EXPECT_EQ(engine.fate_of(0), TaskFate::kDropped);
  EXPECT_EQ(engine.fault_log().stats().dropped, 1);
  EXPECT_THROW(engine.fault_log().completion(0), std::logic_error);
}

TEST(FaultEngine, RetryBudgetExhaustionDrops) {
  FaultPlan plan(1);
  plan.add_down(0, 0.5, 1.0);
  plan.add_down(0, 1.5, 2.0);
  RecoveryPolicy recovery;
  recovery.max_retries = 1;
  EftDispatcher eft(TieBreakKind::kMin);
  const OnlineEngine engine =
      run_dispatcher_faulty(one_machine(1.0), eft, plan, recovery);
  // Kill at 0.5 (attempt 0), retry killed again at 1.5 (attempt 1 ==
  // max_retries): dropped with both kills on the books.
  EXPECT_EQ(engine.fate_of(0), TaskFate::kDropped);
  EXPECT_EQ(engine.fault_log().stats().kills, 2);
  EXPECT_EQ(engine.fault_log().stats().dropped, 1);
}

// JSQ reads queue depths, and under faults a killed segment counts as
// queued on its machine until the crash instant, no longer after it.
// Requests at 1 and 1.5 see machine 0 busy with the segment that dies at 2
// (a tie would send them to machine 0); the request at 3 sees it gone.
TEST(FaultEngine, JsqQueueDepthsCountKilledSegmentsUntilTheCrash) {
  const Instance inst(3, {{0.0, 4.0, ProcSet({0, 1})},
                          {1.0, 1.0, ProcSet({0, 1})},
                          {1.5, 1.0, ProcSet({0, 2})},
                          {3.0, 1.0, ProcSet({0, 2})},
                          {3.5, 1.0, ProcSet({1, 2})}});
  FaultPlan plan(3);
  plan.add_down(0, 2.0, 3.0);
  JsqDispatcher jsq(TieBreakKind::kMin);
  const OnlineEngine engine =
      run_dispatcher_faulty(inst, jsq, plan, RecoveryPolicy{});
  const FaultLog& log = engine.fault_log();

  struct Segment {
    int machine;
    double start, end;
    bool killed;
  };
  const std::vector<std::vector<Segment>> expected = {
      {{0, 0.0, 2.0, true}, {1, 2.0, 6.0, false}},
      {{1, 1.0, 2.0, false}},
      {{2, 1.5, 2.5, false}},
      {{0, 3.0, 4.0, false}},
      {{2, 3.5, 4.5, false}},
  };
  for (int i = 0; i < inst.n(); ++i) {
    const auto attempts = log.attempts_of(i);
    const auto& want = expected[static_cast<std::size_t>(i)];
    ASSERT_EQ(attempts.size(), want.size()) << "task " << i;
    for (std::size_t a = 0; a < want.size(); ++a) {
      EXPECT_EQ(attempts[a].machine, want[a].machine) << i << "/" << a;
      EXPECT_EQ(attempts[a].start, want[a].start) << i << "/" << a;
      EXPECT_EQ(attempts[a].end, want[a].end) << i << "/" << a;
      EXPECT_EQ(attempts[a].killed, want[a].killed) << i << "/" << a;
    }
    EXPECT_EQ(engine.fate_of(i), TaskFate::kCompleted) << "task " << i;
  }
  EXPECT_EQ(log.stats().kills, 1);
}

TEST(FaultEngine, AuditorAcceptsCleanRunsAndFlagsDowntimeViolations) {
  Instance inst(3, {{0.0, 2.0, ProcSet({0, 1})},
                    {0.25, 1.0, ProcSet({1, 2})},
                    {0.5, 1.5, ProcSet({0, 2})},
                    {1.0, 1.0, {}}});
  FaultPlan plan(3);
  plan.add_down(0, 0.5, 2.0);
  plan.add_down(1, 1.0, 3.0);
  RecoveryPolicy recovery;
  recovery.kind = RecoveryKind::kBackoff;

  for (bool buggy : {false, true}) {
    AuditConfig acfg;
    acfg.fault_mode = true;
    InvariantAuditor auditor(acfg);
    EftDispatcher eft(TieBreakKind::kMin);
    const OnlineEngine engine = run_dispatcher_faulty(
        inst, eft, plan, recovery, &auditor, RunTag{}, buggy);
    auditor.check_fault_run(plan, recovery, engine.fault_log());
    if (buggy) {
      // set_unsafe_ignore_downtime executes through down windows; the
      // auditor must catch it as a [fault-*] violation.
      ASSERT_FALSE(auditor.ok());
      EXPECT_NE(auditor.report().find("[fault-"), std::string::npos);
    } else {
      EXPECT_TRUE(auditor.ok()) << auditor.report();
    }
  }
}

// --- Hardened runner ---------------------------------------------------------

TEST(RunnerHardening, ThrowingReplicateSurfacesTaggedAndIndexStable) {
  const std::uint64_t exp = experiment_id("fault_test");
  const std::uint64_t cell = cell_id({3, 1});
  for (int threads : {1, 8}) {
    ExperimentRunner runner(threads);
    std::atomic<int> ran{0};
    bool caught = false;
    try {
      runner.replicates(exp, cell, 8, [&](std::uint64_t, int rep) -> double {
        ++ran;
        if (rep == 2 || rep == 5) {
          throw std::runtime_error("synthetic replicate failure");
        }
        return 1.0;
      });
    } catch (const ReplicateError& e) {
      caught = true;
      // The smallest failing index wins at any thread count — the same
      // error a serial run hits first.
      EXPECT_EQ(e.rep(), 2u) << "threads=" << threads;
      EXPECT_EQ(e.experiment(), exp);
      EXPECT_EQ(e.cell(), cell);
      EXPECT_NE(std::string(e.what()).find("synthetic replicate failure"),
                std::string::npos);
    }
    EXPECT_TRUE(caught) << "threads=" << threads;
    if (threads > 1) {
      // Pool path: every job still ran to completion (no detached work).
      EXPECT_EQ(ran.load(), 8) << "threads=" << threads;
    }
  }
}

TEST(RunnerHardening, WatchdogReportsSlowReplicatesWithoutKillingThem) {
  for (int threads : {1, 2}) {
    ExperimentRunner runner(threads);
    runner.set_watchdog(0.01);
    runner.set_watch_label("unit-test");
    const auto out = runner.map<int>(2, [](int i) {
      if (i == 1) std::this_thread::sleep_for(std::chrono::milliseconds(60));
      return i;
    });
    ASSERT_EQ(out.size(), 2u);  // the slow job completed, not killed
    EXPECT_EQ(out[1], 1);
    const auto hung = runner.hung_replicates();
    ASSERT_FALSE(hung.empty()) << "threads=" << threads;
    EXPECT_NE(hung.front().find("unit-test"), std::string::npos);
  }
}

// --- Sweep checkpointing -----------------------------------------------------

std::string temp_ckpt(const char* name) {
  return testing::TempDir() + "/flowsched_" + name + ".ckpt";
}

TEST(SweepCheckpoint, RoundTripsHexfloatsExactly) {
  const std::string path = temp_ckpt("roundtrip");
  std::remove(path.c_str());
  const std::vector<double> values{1.0 / 3.0, 1e-301, 0.0, -2.5,
                                   0.1 + 0.2};  // not representable exactly
  {
    SweepCheckpoint ckpt(path, "unit", 42);
    EXPECT_EQ(ckpt.resumed(), 0);
    ckpt.put(7, values);
    ckpt.put(9, {1.0});
  }
  SweepCheckpoint resumed(path, "unit", 42);
  EXPECT_EQ(resumed.resumed(), 2);
  ASSERT_TRUE(resumed.has(7));
  const std::vector<double>& back = resumed.get(7);
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(back[i], values[i]) << i;  // bit-exact, not approximately
  }
  EXPECT_FALSE(resumed.has(8));
  EXPECT_THROW(resumed.get(8), std::out_of_range);
}

TEST(SweepCheckpoint, RejectsForeignFingerprint) {
  const std::string path = temp_ckpt("fingerprint");
  std::remove(path.c_str());
  { SweepCheckpoint ckpt(path, "unit", 42); }
  EXPECT_THROW(SweepCheckpoint(path, "unit", 43), std::runtime_error);
  EXPECT_THROW(SweepCheckpoint(path, "other", 42), std::runtime_error);
  SweepCheckpoint same(path, "unit", 42);  // same config reopens fine
}

TEST(SweepCheckpoint, IgnoresTornTrailingLine) {
  const std::string path = temp_ckpt("torn");
  std::remove(path.c_str());
  {
    SweepCheckpoint ckpt(path, "unit", 42);
    ckpt.put(1, {1.5, 2.5});
  }
  {
    // Simulate a run killed mid-append: a truncated cell line.
    std::ofstream out(path, std::ios::app);
    out << "cell 0x0000000000000002 3 0x1p+0";
  }
  SweepCheckpoint resumed(path, "unit", 42);
  EXPECT_EQ(resumed.resumed(), 1);  // intact cell recovered
  EXPECT_TRUE(resumed.has(1));
  EXPECT_FALSE(resumed.has(2));  // torn line dropped, not half-read
}

TEST(SweepCheckpoint, RePutMustBeBitIdentical) {
  const std::string path = temp_ckpt("reput");
  std::remove(path.c_str());
  SweepCheckpoint ckpt(path, "unit", 42);
  ckpt.put(1, {1.0, 2.0});
  ckpt.put(1, {1.0, 2.0});  // identical re-put is a no-op
  EXPECT_THROW(ckpt.put(1, {1.0, 2.000000001}), std::runtime_error);
}

}  // namespace
}  // namespace flowsched
