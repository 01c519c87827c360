// The invariant-audit subsystem (src/check/): auditor detection power,
// generator structure guarantees, shrinker minimality, and the
// differential fuzzer's determinism / fault-injection contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/audit.hpp"
#include "check/fuzz.hpp"
#include "check/gen.hpp"
#include "check/shrink.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "model/structure.hpp"
#include "sched/dispatchers.hpp"
#include "sched/engine.hpp"
#include "sched/fifo.hpp"
#include "util/rng.hpp"

namespace flowsched {
namespace {

Instance small_restricted() {
  std::vector<Task> tasks = {
      {0.0, 2.0, ProcSet({0, 1})}, {0.0, 1.0, ProcSet({1, 2})},
      {0.5, 1.5, ProcSet({0})},    {1.0, 1.0, ProcSet({1, 2})},
      {2.0, 2.0, ProcSet({0, 1, 2})},
  };
  return Instance(3, std::move(tasks));
}

bool has_tag(const std::vector<std::string>& violations,
             const std::string& tag) {
  for (const std::string& v : violations) {
    if (v.find(tag) != std::string::npos) return true;
  }
  return false;
}

// --- auditor: clean runs stay clean ---------------------------------------

TEST(InvariantAuditor, CleanOnEveryPolicy) {
  const Instance inst = small_restricted();
  AuditConfig config;
  config.bound_oracles = true;
  for (const std::string& policy : fuzz_policies()) {
    SCOPED_TRACE(policy);
    EXPECT_TRUE(replay_corpus_instance(inst).empty());
  }
}

TEST(InvariantAuditor, CleanOnFifoUnrestricted) {
  const Instance inst = Instance::unrestricted(
      3, {{0, 1}, {0, 1}, {0, 2}, {1, 1}, {1, 3}, {2, 1}});
  AuditConfig config;
  config.bound_oracles = true;
  InvariantAuditor auditor(config);
  fifo_schedule(inst, TieBreakKind::kMin, 0, &auditor);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_EQ(auditor.runs(), 1);
}

// --- auditor: corrupted schedules are flagged ------------------------------

TEST(InvariantAuditor, FlagsEligibilityViolation) {
  const Instance inst = small_restricted();
  Schedule sched(inst);
  // Task 2's set is {M1} only; put it on machine 2 (and keep the rest
  // legal by spreading tasks over disjoint time ranges).
  sched.assign(0, 0, 0.0);
  sched.assign(1, 1, 0.0);
  sched.assign(2, 2, 10.0);
  sched.assign(3, 1, 10.0);
  sched.assign(4, 0, 10.0);
  const auto violations = audit_schedule(sched, "replay");
  EXPECT_TRUE(has_tag(violations, "[eligibility]")) << sched.instance().n();
}

TEST(InvariantAuditor, FlagsDoubleBooking) {
  const Instance inst = Instance::unrestricted(2, {{0, 2}, {0, 2}, {0, 2}});
  Schedule sched(inst);
  sched.assign(0, 0, 0.0);
  sched.assign(1, 0, 1.0);  // overlaps task 0 on machine 1
  sched.assign(2, 1, 0.0);
  const auto violations = audit_schedule(sched, "replay");
  EXPECT_TRUE(has_tag(violations, "[overlap]"));
}

TEST(InvariantAuditor, FlagsStartBeforeRelease) {
  const Instance inst = Instance::unrestricted(2, {{1.0, 1}, {1.0, 1}});
  Schedule sched(inst);
  sched.assign(0, 0, 0.5);  // starts before its release
  sched.assign(1, 1, 1.0);
  const auto violations = audit_schedule(sched, "replay");
  EXPECT_TRUE(has_tag(violations, "[accounting]"));
}

TEST(InvariantAuditor, FlagsFifoOrderBreach) {
  // Unrestricted instance labeled FIFO, but the later release starts first.
  const Instance inst = Instance::unrestricted(1, {{0, 1}, {1, 1}});
  Schedule sched(inst);
  sched.assign(0, 0, 2.0);
  sched.assign(1, 0, 1.0);
  const auto violations = audit_schedule(sched, "FIFO");
  EXPECT_TRUE(has_tag(violations, "[fifo-order]"));
}

TEST(InvariantAuditor, FlagsUnforcedIdleness) {
  // Machine idles at t=0 while both tasks wait until t=5: work conservation
  // fails for a FIFO-class engine.
  const Instance inst = Instance::unrestricted(1, {{0, 1}, {0, 1}});
  Schedule sched(inst);
  sched.assign(0, 0, 5.0);
  sched.assign(1, 0, 6.0);
  const auto violations = audit_schedule(sched, "FIFO");
  EXPECT_TRUE(has_tag(violations, "[work-conservation]"));
}

// --- auditor: pinned end-of-run sweep findings ------------------------------

// Drives an auditor by hand: one run on `m` machines with the given tasks
// (release, proc, machine, start; completion start + proc), followed by the
// given busy/idle narration.
struct HandTask {
  double release;
  double proc;
  int machine;
  double start;
};
struct HandEdge {
  int machine;
  double time;
  bool busy;
};

std::vector<std::string> audit_by_hand(int m,
                                       const std::vector<HandTask>& tasks,
                                       const std::vector<HandEdge>& edges) {
  InvariantAuditor auditor;
  auditor.on_run_begin(RunInfo{m, "replay", {}});
  const ProcSet all = ProcSet::all(m);
  double makespan = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const HandTask& t = tasks[i];
    ObsEvent e{.kind = ObsEventKind::kTaskReleased,
               .time = t.release,
               .task = static_cast<int>(i),
               .release = t.release,
               .proc = t.proc,
               .eligible = &all};
    auditor.on_event(e);
    e.eligible = nullptr;
    e.machine = t.machine;
    e.kind = ObsEventKind::kTaskDispatched;
    e.time = t.start;
    auditor.on_event(e);
    e.kind = ObsEventKind::kTaskStarted;
    auditor.on_event(e);
    e.kind = ObsEventKind::kTaskCompleted;
    e.time = t.start + t.proc;
    auditor.on_event(e);
    makespan = std::max(makespan, e.time);
  }
  for (const HandEdge& edge : edges) {
    auditor.on_event(ObsEvent{.kind = edge.busy ? ObsEventKind::kMachineBusy
                                                : ObsEventKind::kMachineIdle,
                              .time = edge.time,
                              .machine = edge.machine});
  }
  auditor.on_run_end(makespan);
  return auditor.violations();
}

TEST(InvariantAuditor, PinsBusyPeriodShorterThanTaskBurst) {
  // M1 runs two back-to-back tasks, [0, 2) then [2, 3), but narrates idle
  // at 2.5; M2 runs a task and never narrates anything.
  const auto violations = audit_by_hand(
      2, {{0, 2, 0, 0}, {0, 1, 1, 0}, {0, 1, 0, 2}},
      {{0, 0, true}, {0, 2.5, false}});
  EXPECT_EQ(violations,
            (std::vector<std::string>{
                "run#0 replay: [busy-idle] machine M1 busy period [0, 2.5) "
                "!= task burst [0, 3)",
                "run#0 replay: [busy-idle] machine M2 ran tasks but never "
                "reported busy"}));
}

// One waiting task W (released 4, started 10, eligible {M1, M2}) among
// fillers that start at their release and so never wait. With eps = 0.25:
//   M1 idles in [0, 4)   ends exactly at r_W         -> overlap 0
//               [6, 6.25) inside the wait            -> overlap exactly eps
//               [10, inf) starts exactly at S_W      -> overlap 0
//   M2 idles in [0, 2)   ends before r_W
//               [5, 5.25) inside the wait            -> overlap exactly eps
//               [7, 8)   the witness (filled when `idle_7_8` is off)
Instance wait_instance(bool idle_7_8) {
  return Instance(2, {{2.0, 3.0, ProcSet({1})},
                      {4.0, 2.0, ProcSet({0})},
                      {4.0, 1.0, ProcSet({0, 1})},
                      {5.25, idle_7_8 ? 1.75 : 2.75, ProcSet({1})},
                      {6.25, 3.75, ProcSet({0})},
                      {8.0, 2.0, ProcSet({1})}});
}

Schedule wait_schedule(const Instance& inst) {
  Schedule sched(inst);
  sched.assign(0, 1, 2.0);   // F [2, 5)       on M2
  sched.assign(1, 0, 4.0);   // F [4, 6)       on M1
  sched.assign(2, 1, 10.0);  // W [10, 11)     on M2
  sched.assign(3, 1, 5.25);  // F [5.25, 7|8)  on M2
  sched.assign(4, 0, 6.25);  // F [6.25, 10)   on M1
  sched.assign(5, 1, 8.0);   // F [8, 10)      on M2
  return sched;
}

TEST(InvariantAuditor, PinsFirstWorkConservationWitness) {
  AuditConfig config;
  config.eps = 0.25;
  const Instance inst = wait_instance(true);
  EXPECT_EQ(audit_schedule(wait_schedule(inst), "FIFO-eligible", config),
            (std::vector<std::string>{
                "run#0 FIFO-eligible: [work-conservation] task 2 waits in "
                "[4, 10) while eligible machine M2 idles in [7, 8)"}));
}

TEST(InvariantAuditor, BoundaryAndExactEpsGapsAreNotWitnesses) {
  AuditConfig config;
  config.eps = 0.25;
  const Instance inst = wait_instance(false);
  EXPECT_TRUE(
      audit_schedule(wait_schedule(inst), "FIFO-eligible", config)
          .empty());
}

TEST(InvariantAuditor, CheckFaultRunBeforeAnyRunIsAProtocolViolation) {
  AuditConfig config;
  config.fault_mode = true;
  InvariantAuditor auditor(config);
  auditor.check_fault_run(FaultPlan(2), RecoveryPolicy{}, FaultLog{});
  EXPECT_EQ(auditor.violations(),
            (std::vector<std::string>{"run#0 : [protocol] check_fault_run "
                                      "before any completed run"}));
  EXPECT_EQ(auditor.runs(), 0);
}

// --- auditor: end-of-run sweeps against a reference --------------------------

std::string fmt17(double x) {
  std::ostringstream os;
  os.precision(17);
  os << x;
  return os.str();
}

// The [overlap], [busy-idle] and [work-conservation] sweeps as plain
// per-machine scans over every record and every idle gap, with no
// bucketing and no pruning. The auditor's findings under those tags must
// match these line for line.
class ReferenceSweeps final : public SchedObserver {
 public:
  explicit ReferenceSweeps(double eps) : eps_(eps) {}

  void on_run_begin(const RunInfo& info) override {
    prefix_ = "run#0 " + info.algo + ": [";
    tasks_.clear();
    transitions_.assign(static_cast<std::size_t>(info.m), {});
  }

  void on_event(const ObsEvent& e) override {
    switch (e.kind) {
      case ObsEventKind::kTaskReleased:
        tasks_.push_back({.proc = e.proc, .release = e.release,
                          .eligible = *e.eligible});
        break;
      case ObsEventKind::kTaskDispatched:
        tasks_[static_cast<std::size_t>(e.task)].machine = e.machine;
        break;
      case ObsEventKind::kTaskStarted:
        tasks_[static_cast<std::size_t>(e.task)].start = e.time;
        break;
      case ObsEventKind::kTaskCompleted:
        tasks_[static_cast<std::size_t>(e.task)].completion = e.time;
        tasks_[static_cast<std::size_t>(e.task)].done = true;
        break;
      case ObsEventKind::kMachineBusy:
      case ObsEventKind::kMachineIdle:
        transitions_[static_cast<std::size_t>(e.machine)].emplace_back(
            e.time, e.kind == ObsEventKind::kMachineBusy);
        break;
    }
  }

  void on_run_end(double) override {
    const int m = static_cast<int>(transitions_.size());
    double makespan = 0;
    for (const Rec& r : tasks_) {
      if (r.done) makespan = std::max(makespan, r.completion);
    }
    for (int j = 0; j < m; ++j) {
      const auto iv = intervals(j, false);
      for (std::size_t k = 1; k < iv.size(); ++k) {
        if (iv[k].first + eps_ < iv[k - 1].second) {
          add("overlap", "machine M" + std::to_string(j + 1) +
                             " double-booked: [" + fmt17(iv[k].first) +
                             ", ...) starts inside [" + fmt17(iv[k - 1].first) +
                             ", " + fmt17(iv[k - 1].second) + ")");
        }
      }
    }
    for (int j = 0; j < m; ++j) busy_idle(j, makespan);
    work_conservation(m);
  }

  const std::vector<std::string>& lines() const { return lines_; }

 private:
  struct Rec {
    double proc = 0;
    double release = 0;
    ProcSet eligible;
    int machine = -1;
    double start = 0;
    double completion = 0;
    bool done = false;
  };

  void add(const std::string& tag, const std::string& what) {
    lines_.push_back(prefix_ + tag + "] " + what);
  }

  // Machine j's completed tasks, sorted; ending at the narrated completion
  // or, for work conservation, at start + proc.
  std::vector<std::pair<double, double>> intervals(int j, bool proc_end) const {
    std::vector<std::pair<double, double>> iv;
    for (const Rec& r : tasks_) {
      if (r.done && r.machine == j) {
        iv.emplace_back(r.start, proc_end ? r.start + r.proc : r.completion);
      }
    }
    std::sort(iv.begin(), iv.end());
    return iv;
  }

  void busy_idle(int j, double makespan) {
    const std::string mj = "machine M" + std::to_string(j + 1);
    std::vector<std::pair<double, double>> runs;
    for (const auto& iv : intervals(j, false)) {
      if (!runs.empty() && iv.first <= runs.back().second) {
        runs.back().second = std::max(runs.back().second, iv.second);
      } else {
        runs.push_back(iv);
      }
    }
    const auto& trans = transitions_[static_cast<std::size_t>(j)];
    if (trans.empty()) {
      if (!runs.empty()) {
        add("busy-idle", mj + " ran tasks but never reported busy");
      }
      return;
    }
    std::vector<std::pair<double, double>> narrated;
    for (std::size_t k = 0; k < trans.size(); ++k) {
      if (!trans[k].second) continue;
      if (k + 1 >= trans.size()) {
        add("busy-idle", mj + " still busy at end of run (missing "
                              "finish_observation?)");
      }
      narrated.emplace_back(trans[k].first, k + 1 < trans.size()
                                                ? trans[k + 1].first
                                                : makespan + 1);
    }
    if (narrated.size() != runs.size()) {
      add("busy-idle", mj + " narrated " + std::to_string(narrated.size()) +
                           " busy periods but ran " +
                           std::to_string(runs.size()) + " task bursts");
      return;
    }
    for (std::size_t k = 0; k < runs.size(); ++k) {
      if (narrated[k] != runs[k]) {
        add("busy-idle", mj + " busy period [" + fmt17(narrated[k].first) +
                             ", " + fmt17(narrated[k].second) +
                             ") != task burst [" + fmt17(runs[k].first) +
                             ", " + fmt17(runs[k].second) + ")");
        return;
      }
    }
  }

  void work_conservation(int m) {
    std::vector<std::vector<std::pair<double, double>>> gaps(
        static_cast<std::size_t>(m));
    for (int j = 0; j < m; ++j) {
      double frontier = 0;
      for (const auto& [s, c] : intervals(j, true)) {
        if (s > frontier) {
          gaps[static_cast<std::size_t>(j)].emplace_back(frontier, s);
        }
        frontier = std::max(frontier, c);
      }
      gaps[static_cast<std::size_t>(j)].emplace_back(
          frontier, std::numeric_limits<double>::infinity());
    }
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      const Rec& r = tasks_[i];
      if (!r.done || r.start <= r.release + eps_) continue;
      for (int j : r.eligible.machines()) {
        if (j < 0 || j >= m) continue;
        for (const auto& [lo, hi] : gaps[static_cast<std::size_t>(j)]) {
          const double olo = std::max(lo, r.release);
          const double ohi = std::min(hi, r.start);
          if (ohi - olo > eps_) {
            add("work-conservation",
                "task " + std::to_string(i) + " waits in [" + fmt17(r.release) +
                    ", " + fmt17(r.start) + ") while eligible machine M" +
                    std::to_string(j + 1) + " idles in [" + fmt17(olo) + ", " +
                    fmt17(ohi) + ")");
            return;
          }
        }
      }
    }
  }

  double eps_;
  std::string prefix_;
  std::vector<Rec> tasks_;
  std::vector<std::vector<std::pair<double, bool>>> transitions_;
  std::vector<std::string> lines_;
};

// Forwards a run, rewriting each task's processing time in every event and
// its narrated completion, so records can break [accounting]: completions
// off start + proc, and intervals that end before they start.
class Corrupter final : public SchedObserver {
 public:
  Corrupter(SchedObserver& next, std::uint64_t seed)
      : next_(next), rng_(seed) {}
  void on_run_begin(const RunInfo& info) override { next_.on_run_begin(info); }
  void on_event(const ObsEvent& event) override {
    ObsEvent e = event;
    if (e.kind == ObsEventKind::kTaskReleased) {
      proc_.push_back(rng_.bernoulli(0.2) ? -e.proc : e.proc);
      const auto halves = static_cast<double>(rng_.uniform_int(-4, 4));
      shift_.push_back(rng_.bernoulli(0.2) ? 0.5 * halves : 0.0);
    }
    if (e.task >= 0 && e.kind != ObsEventKind::kMachineBusy &&
        e.kind != ObsEventKind::kMachineIdle) {
      e.proc = proc_[static_cast<std::size_t>(e.task)];
      if (e.kind == ObsEventKind::kTaskCompleted) {
        e.time += shift_[static_cast<std::size_t>(e.task)];
      }
    }
    next_.on_event(e);
  }
  void on_run_end(double makespan) override { next_.on_run_end(makespan); }

 private:
  SchedObserver& next_;
  Rng rng_;
  std::vector<double> proc_;
  std::vector<double> shift_;
};

std::vector<std::string> sweep_findings(const std::vector<std::string>& all) {
  std::vector<std::string> out;
  for (const std::string& v : all) {
    for (const char* tag : {"[overlap]", "[busy-idle]", "[work-conservation]"}) {
      if (v.find(tag) != std::string::npos) {
        out.push_back(v);
        break;
      }
    }
  }
  return out;
}

// Random machines (eligible or not) and starts on a quarter grid, so
// overlaps, touching intervals, equal starts and exact-eps gaps all occur.
Schedule random_schedule(const Instance& inst, Rng& rng) {
  Schedule sched(inst);
  for (int i = 0; i < inst.n(); ++i) {
    const int j = static_cast<int>(rng.uniform_int(0, inst.m() - 1));
    const double wait = 0.25 * static_cast<double>(rng.uniform_int(0, 24));
    sched.assign(i, j, inst.task(i).release + wait);
  }
  return sched;
}

TEST(InvariantAuditor, EndOfRunSweepsMatchReference) {
  int findings = 0;
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    Rng rng(seed * 7919 + 1);
    StructuredInstanceOptions opts;
    const Instance inst = random_structured_instance(
        kAllFuzzStructures[seed % std::size(kAllFuzzStructures)], opts, rng);
    AuditConfig config;
    config.max_violations = 1 << 20;
    config.force_work_conservation = true;
    config.eps = seed % 3 == 0 ? 0.0 : seed % 3 == 1 ? 0.25 : 1e-9;
    const Schedule replayed = random_schedule(inst, rng);
    for (int mode = 0; mode < 4; ++mode) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " mode " +
                   std::to_string(mode));
      InvariantAuditor auditor(config);
      ReferenceSweeps reference(config.eps);
      MulticastObserver both({&auditor, &reference});
      if (mode == 0) {
        EftDispatcher eft(TieBreakKind::kMin);
        run_dispatcher(inst, eft, both);
      } else if (mode == 1) {
        FaultyEftDispatcher faulty;
        run_dispatcher(inst, faulty, both);
      } else if (mode == 2) {
        replay_schedule(replayed, RunInfo{inst.m(), "FIFO-eligible", {}}, both);
      } else {
        Corrupter corrupt(both, seed);
        replay_schedule(replayed, RunInfo{inst.m(), "FIFO-eligible", {}},
                        corrupt);
      }
      EXPECT_EQ(sweep_findings(auditor.violations()), reference.lines());
      findings += static_cast<int>(reference.lines().size());
    }
  }
  EXPECT_GT(findings, 150);  // the comparison is not vacuous

  // A decreasing release. Task 2 (r = 10) waits on M2 while it is busy, so
  // M2's gap cursor moves past its gap [4, 6); task 3 (r = 3, a [protocol]
  // violation) then needs exactly that gap for its witness.
  struct Run {
    double release, proc, start;
  };
  const std::vector<Run> runs = {{0, 4, 0}, {6, 14, 6}, {10, 1, 20}, {3, 1, 21}};
  const ProcSet m2({1});
  AuditConfig config;
  config.max_violations = 1 << 20;
  config.force_work_conservation = true;
  InvariantAuditor auditor(config);
  ReferenceSweeps reference(config.eps);
  MulticastObserver both({&auditor, &reference});
  both.on_run_begin(RunInfo{2, "FIFO-eligible", {}});
  const auto emit = [&](ObsEventKind kind, double time, int task) {
    const Run& r = runs[static_cast<std::size_t>(task)];
    both.on_event(ObsEvent{.kind = kind, .time = time, .task = task,
                           .machine = kind == ObsEventKind::kTaskReleased ? -1 : 1,
                           .release = r.release, .proc = r.proc,
                           .eligible = &m2});
  };
  const auto machine = [&](ObsEventKind kind, double time) {
    both.on_event(ObsEvent{.kind = kind, .time = time, .machine = 1});
  };
  machine(ObsEventKind::kMachineBusy, 0);
  for (int i = 0; i < static_cast<int>(runs.size()); ++i) {
    const Run& r = runs[static_cast<std::size_t>(i)];
    emit(ObsEventKind::kTaskReleased, r.release, i);
    emit(ObsEventKind::kTaskDispatched, r.release, i);
    emit(ObsEventKind::kTaskStarted, r.start, i);
    emit(ObsEventKind::kTaskCompleted, r.start + r.proc, i);
  }
  machine(ObsEventKind::kMachineIdle, 4);
  machine(ObsEventKind::kMachineBusy, 6);
  machine(ObsEventKind::kMachineIdle, 22);
  both.on_run_end(22);
  EXPECT_EQ(sweep_findings(auditor.violations()), reference.lines());
  EXPECT_EQ(reference.lines(),
            (std::vector<std::string>{
                "run#0 FIFO-eligible: [work-conservation] task 3 waits in "
                "[3, 21) while eligible machine M2 idles in [4, 6)"}));
}

// --- generators: families land in the advertised class ---------------------

std::vector<ProcSet> distinct_sets(const Instance& inst) {
  std::set<std::vector<int>> seen;
  std::vector<ProcSet> family;
  for (const Task& t : inst.tasks()) {
    ProcSet s = t.eligible;
    if (s.empty()) {  // empty means "all machines"
      std::vector<int> all(static_cast<std::size_t>(inst.m()));
      for (int j = 0; j < inst.m(); ++j) all[static_cast<std::size_t>(j)] = j;
      s = ProcSet(std::move(all));
    }
    if (seen.insert(s.machines()).second) family.push_back(std::move(s));
  }
  return family;
}

TEST(StructuredGenerator, FamiliesMatchStructure) {
  StructuredInstanceOptions opts;
  for (FuzzStructure structure : kAllFuzzStructures) {
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
      Rng rng(seed * 977 + 13);
      const Instance inst = random_structured_instance(structure, opts, rng);
      ASSERT_GE(inst.n(), 1);
      const std::vector<ProcSet> family = distinct_sets(inst);
      SCOPED_TRACE(to_string(structure) + " seed " + std::to_string(seed));
      switch (structure) {
        case FuzzStructure::kInclusive:
          EXPECT_TRUE(is_inclusive_family(family));
          break;
        case FuzzStructure::kNested:
          EXPECT_TRUE(is_nested_family(family));
          break;
        case FuzzStructure::kKSize:
          EXPECT_TRUE(is_uniform_size_family(family));
          break;
        case FuzzStructure::kInterval:
        case FuzzStructure::kAdversary:
          EXPECT_TRUE(is_interval_family(family, inst.m()));
          break;
      }
    }
  }
}

TEST(StructuredGenerator, UnitModeDrawsUnitTasks) {
  StructuredInstanceOptions opts;
  opts.unit_tasks = true;
  Rng rng(7);
  const Instance inst =
      random_structured_instance(FuzzStructure::kKSize, opts, rng);
  EXPECT_TRUE(inst.unit_tasks());
}

// --- shrinker ---------------------------------------------------------------

TEST(Shrinker, MinimizesToPredicateCore) {
  StructuredInstanceOptions opts;
  opts.min_n = 20;
  opts.max_n = 30;
  Rng rng(11);
  const Instance inst =
      random_structured_instance(FuzzStructure::kKSize, opts, rng);
  // "At least two tasks and at least one long task" — the 2-task core.
  const FailurePredicate pred = [](const Instance& cand) {
    if (cand.n() < 2) return false;
    for (const Task& t : cand.tasks()) {
      if (t.proc > 1.5) return true;
    }
    return false;
  };
  ASSERT_TRUE(pred(inst));
  ShrinkStats stats;
  const Instance minimized = shrink_instance(inst, pred, 4000, &stats);
  EXPECT_TRUE(pred(minimized));
  EXPECT_EQ(minimized.n(), 2);
  EXPECT_EQ(stats.tasks_before, inst.n());
  EXPECT_EQ(stats.tasks_after, 2);
  EXPECT_GT(stats.predicate_calls, 0);
}

TEST(Shrinker, ReturnsInputWhenPredicateDoesNotHold) {
  const Instance inst = small_restricted();
  const Instance out =
      shrink_instance(inst, [](const Instance&) { return false; });
  EXPECT_EQ(out.n(), inst.n());
}

// --- fault injection: the planted EFT bug is caught and shrunk --------------

TEST(FaultyEft, ViolatesWorkConservationDirectly) {
  // Two simultaneous unit tasks, two machines: the off-by-one cursor calls
  // the busy machine idle and stacks both tasks on M1 while M2 sits empty.
  const Instance inst = Instance::unrestricted(2, {{0, 1}, {0, 1}});
  FaultyEftDispatcher faulty;
  InvariantAuditor auditor;
  run_dispatcher(inst, faulty, auditor);
  EXPECT_FALSE(auditor.ok());
  EXPECT_TRUE(has_tag(auditor.violations(), "[work-conservation]"))
      << auditor.report();
}

TEST(FaultyEft, FuzzerCatchesAndShrinksToAtMostSixTasks) {
  FuzzConfig config;
  config.seed = 42;
  config.runs = 8;
  config.threads = 1;
  config.inject_bug = true;
  const FuzzReport report = run_fuzz(config);
  bool caught = false;
  for (const FuzzFinding& f : report.findings) {
    if (f.policy != "EFT-Min") continue;
    caught = true;
    EXPECT_LE(f.shrunk_n, 6) << f.check;
    EXPECT_FALSE(f.instance_text.empty());
  }
  EXPECT_TRUE(caught) << report.summary();
}

// --- fuzzer: determinism and clean seeds ------------------------------------

TEST(Fuzz, CleanSeededCampaign) {
  FuzzConfig config;
  config.seed = 5;
  config.runs = 30;
  config.threads = 1;
  const FuzzReport report = run_fuzz(config);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.runs, 30);
  EXPECT_GT(report.schedules, 30 * 8);  // every policy ran on every instance
  EXPECT_GT(report.lp_checks, 0);
}

TEST(Fuzz, ReportByteIdenticalAcrossThreadCounts) {
  FuzzConfig config;
  config.seed = 7;
  config.runs = 24;
  config.threads = 1;
  const std::string serial = run_fuzz(config).summary();
  config.threads = 3;
  const std::string parallel = run_fuzz(config).summary();
  EXPECT_EQ(serial, parallel);
}

TEST(Fuzz, SingleStructureCampaign) {
  FuzzConfig config;
  config.seed = 3;
  config.runs = 10;
  config.threads = 1;
  config.structures = {FuzzStructure::kAdversary};
  const FuzzReport report = run_fuzz(config);
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace flowsched
