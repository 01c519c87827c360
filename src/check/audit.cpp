#include "check/audit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>

#include "offline/bruteforce.hpp"
#include "offline/lower_bounds.hpp"
#include "offline/unit_optimal.hpp"
#include "sched/engine.hpp"
#include "sched/fifo.hpp"
#include "util/rational.hpp"

namespace flowsched {
namespace {

// Behavioural expectations derivable from an algorithm label. FIFO and the
// EFT family are work-conserving on eligible machines (a task never waits
// while a machine it may use idles: EFT picks the earliest-finishing
// eligible machine, so every other eligible frontier is at least the chosen
// start); JSQ / LeastLoaded / Random / RoundRobin give no such guarantee
// (their choice ignores the completion frontier).
struct AlgoTraits {
  bool fifo_class = false;        // global FIFO start order (unrestricted)
  bool work_conserving = false;   // eligible-machine work conservation
  bool eft_or_fifo = false;       // Prop-1 / Th.1 / Th.2 oracles apply
  bool tie_known = false;         // exact cross-replay incl. machines
  TieBreakKind tie = TieBreakKind::kMin;
};

AlgoTraits algo_traits(const std::string& algo) {
  AlgoTraits t;
  if (algo == "FIFO") {
    t.fifo_class = t.work_conserving = t.eft_or_fifo = true;
  } else if (algo == "EFT-Min" || algo == "EFT-Max") {
    t.fifo_class = t.work_conserving = t.eft_or_fifo = true;
    t.tie_known = true;
    t.tie = algo == "EFT-Min" ? TieBreakKind::kMin : TieBreakKind::kMax;
  } else if (algo == "EFT-Rand") {
    // Starts are tie-invariant on unrestricted instances (the frontier
    // multiset evolves identically under any tie-break), so the Prop-1
    // replay compares start times only.
    t.fifo_class = t.work_conserving = t.eft_or_fifo = true;
  } else if (algo == "FIFO-eligible") {
    t.work_conserving = true;
  }
  return t;
}

bool integer_releases(const Instance& inst) {
  for (const Task& t : inst.tasks()) {
    if (t.release != std::floor(t.release)) return false;
  }
  return true;
}

std::string fmt(double x) {
  std::ostringstream os;
  os.precision(17);
  os << x;
  return os.str();
}

}  // namespace

InvariantAuditor::InvariantAuditor(AuditConfig config)
    : config_(std::move(config)) {}

void InvariantAuditor::violation(const std::string& check,
                                 const std::string& what) {
  if (static_cast<int>(violations_.size()) >= config_.max_violations) return;
  violations_.push_back("run#" + std::to_string(runs_) + " " + info_.algo +
                        ": [" + check + "] " + what);
}

void InvariantAuditor::on_run_begin(const RunInfo& info) {
  if (open_) violation("protocol", "on_run_begin while a run is open");
  open_ = true;
  info_ = info;
  settle_weighted();  // the previous run's records are about to go
  tasks_.clear();
  transitions_.assign(static_cast<std::size_t>(std::max(info.m, 0)), {});
  unrestricted_ = true;
  last_release_ = 0;
  expect_fifo_order_ = config_.force_fifo_order;
  expect_work_conservation_ = config_.force_work_conservation;
  eft_or_fifo_ = false;
  if (info.m <= 0) violation("protocol", "RunInfo.m <= 0");
  if (config_.infer_from_algo) {
    const AlgoTraits traits = algo_traits(info.algo);
    expect_fifo_order_ = expect_fifo_order_ || traits.fifo_class;
    expect_work_conservation_ =
        expect_work_conservation_ || traits.work_conserving;
    eft_or_fifo_ = traits.eft_or_fifo;
  }
}

void InvariantAuditor::on_event(const ObsEvent& e) {
  if (!open_) {
    violation("protocol", "event outside a run");
    return;
  }
  switch (e.kind) {
    case ObsEventKind::kTaskReleased: {
      if (e.task != static_cast<int>(tasks_.size())) {
        violation("protocol", "task " + std::to_string(e.task) +
                                  " released out of order (expected " +
                                  std::to_string(tasks_.size()) + ")");
        return;
      }
      if (e.release < last_release_) {
        violation("protocol", "releases decrease at task " +
                                  std::to_string(e.task) + ": " +
                                  fmt(e.release) + " < " + fmt(last_release_));
      }
      last_release_ = e.release;
      if (e.time != e.release) {
        violation("protocol", "released event time " + fmt(e.time) +
                                  " != release " + fmt(e.release));
      }
      if (!(e.proc > 0)) {
        violation("protocol",
                  "task " + std::to_string(e.task) + " has proc <= 0");
      }
      if (!(e.weight > 0)) {
        violation("protocol",
                  "task " + std::to_string(e.task) + " has weight <= 0");
      }
      TaskRecord rec;
      rec.release = e.release;
      rec.proc = e.proc;
      rec.weight = e.weight;
      if (e.eligible == nullptr || e.eligible->empty()) {
        violation("protocol", "task " + std::to_string(e.task) +
                                  " released with no processing set");
        rec.eligible = ProcSet::all(std::max(info_.m, 1));
      } else {
        rec.eligible = *e.eligible;  // callback-scoped pointer: copy
        if (!rec.eligible.within(info_.m)) {
          violation("eligibility", "task " + std::to_string(e.task) +
                                       " processing set " +
                                       rec.eligible.str() + " outside [0, " +
                                       std::to_string(info_.m) + ")");
        }
      }
      if (rec.eligible.size() != info_.m) unrestricted_ = false;
      tasks_.push_back(std::move(rec));
      break;
    }
    case ObsEventKind::kTaskDispatched:
    case ObsEventKind::kTaskStarted:
    case ObsEventKind::kTaskCompleted: {
      if (e.task < 0 || e.task >= static_cast<int>(tasks_.size())) {
        violation("protocol", "event for unreleased task " +
                                  std::to_string(e.task));
        return;
      }
      TaskRecord& rec = tasks_[static_cast<std::size_t>(e.task)];
      const int expected_phase = e.kind == ObsEventKind::kTaskDispatched ? 0
                                 : e.kind == ObsEventKind::kTaskStarted ? 1
                                                                        : 2;
      if (rec.phase != expected_phase) {
        violation("protocol", "task " + std::to_string(e.task) +
                                  " lifecycle out of order (phase " +
                                  std::to_string(rec.phase) + ")");
        return;
      }
      rec.phase = expected_phase + 1;
      if (e.release != rec.release || e.proc != rec.proc ||
          e.weight != rec.weight) {
        violation("accounting", "task " + std::to_string(e.task) +
                                    " release/proc/weight drifted across "
                                    "events");
      }
      if (e.kind == ObsEventKind::kTaskDispatched) {
        rec.machine = e.machine;
        rec.dispatch_time = e.time;
        rec.setup = e.setup;
        if (e.machine < 0 || e.machine >= info_.m) {
          violation("eligibility", "task " + std::to_string(e.task) +
                                       " dispatched to machine " +
                                       std::to_string(e.machine) +
                                       " outside [0, " +
                                       std::to_string(info_.m) + ")");
        } else if (!rec.eligible.contains(e.machine)) {
          violation("eligibility",
                    "task " + std::to_string(e.task) + " dispatched to M" +
                        std::to_string(e.machine + 1) + " not in its set " +
                        rec.eligible.str());
        }
        if (e.time < rec.release) {
          violation("protocol", "task " + std::to_string(e.task) +
                                    " dispatched before its release");
        }
      } else if (e.kind == ObsEventKind::kTaskStarted) {
        rec.start = e.time;
        if (e.machine != rec.machine) {
          violation("protocol", "task " + std::to_string(e.task) +
                                    " started on a machine it was not "
                                    "dispatched to");
        }
        if (e.time < rec.release) {
          violation("accounting", "task " + std::to_string(e.task) +
                                      " starts at " + fmt(e.time) +
                                      " before release " + fmt(rec.release));
        }
      } else {
        rec.completion = e.time;
        if (e.machine != rec.machine) {
          violation("protocol", "task " + std::to_string(e.task) +
                                    " completed on a machine it was not "
                                    "dispatched to");
        }
        // C_i = S_i + setup_i + p_i (setup_i = 0 outside nc mode). Every
        // engine computes the completion as the left-to-right IEEE double
        // sum, so demand bitwise equality; on the dyadic theory grid that
        // sum is exactly representable, making this exact arithmetic.
        // Accept exact Rational equality too, for sinks that compute C_i by
        // other (exact) means and round differently. Under faults the final
        // segment may be shorter than p_i (checkpoint recovery);
        // check_fault_run does the exact segment-sum accounting instead.
        const double expected = config_.nc_mode
                                    ? (rec.start + rec.setup) + rec.proc
                                    : rec.start + rec.proc;
        bool exact_ok = config_.fault_mode || e.time == expected;
        if (!exact_ok) {
          const auto s = rational_from_double(rec.start);
          const auto u = rational_from_double(rec.setup);
          const auto p = rational_from_double(rec.proc);
          const auto c = rational_from_double(e.time);
          exact_ok = s && u && p && c && *s + *u + *p == *c;
        }
        if (!exact_ok) {
          violation(config_.nc_mode ? "setup-accounting" : "accounting",
                    "task " + std::to_string(e.task) +
                        ": C_i != S_i + setup_i + p_i (" + fmt(e.time) +
                        " != " + fmt(rec.start) + " + " + fmt(rec.setup) +
                        " + " + fmt(rec.proc) + ")");
        }
      }
      break;
    }
    case ObsEventKind::kMachineBusy:
    case ObsEventKind::kMachineIdle: {
      if (e.machine < 0 || e.machine >= info_.m) {
        violation("protocol",
                  "machine event outside [0, " + std::to_string(info_.m) + ")");
        return;
      }
      auto& trans = transitions_[static_cast<std::size_t>(e.machine)];
      const bool busy = e.kind == ObsEventKind::kMachineBusy;
      if (!trans.empty() && trans.back().busy == busy) {
        violation("busy-idle", "machine M" + std::to_string(e.machine + 1) +
                                   " repeated " + (busy ? "busy" : "idle") +
                                   " transition at " + fmt(e.time));
      }
      if (trans.empty() && !busy) {
        violation("busy-idle", "machine M" + std::to_string(e.machine + 1) +
                                   " goes idle before ever being busy");
      }
      if (!trans.empty() && e.time < trans.back().time) {
        violation("busy-idle", "machine M" + std::to_string(e.machine + 1) +
                                   " transitions move backwards in time");
      }
      trans.push_back(Transition{e.time, busy});
      break;
    }
  }
}

void InvariantAuditor::on_run_end(double makespan) {
  if (!open_) {
    violation("protocol", "on_run_end without on_run_begin");
    return;
  }
  double max_completion = 0;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].phase != 3) {
      // Under faults a dropped task legitimately never completes; its fate
      // is validated against the log in check_fault_run.
      if (!config_.fault_mode) {
        violation("protocol", "task " + std::to_string(i) +
                                  " never completed (phase " +
                                  std::to_string(tasks_[i].phase) + ")");
      }
    } else {
      max_completion = std::max(max_completion, tasks_[i].completion);
    }
  }
  if (makespan + config_.eps < max_completion) {
    violation("accounting", "reported makespan " + fmt(makespan) +
                                " below the last completion " +
                                fmt(max_completion));
  }
  if (!config_.fault_mode) {
    // Fault runs narrate no busy/idle stream and may checkpoint partial
    // segments; [fault-overlap] and friends replace these in
    // check_fault_run.
    const MachineSpans by_machine = bucket_by_machine();
    check_overlap(by_machine);
    check_machine_events(by_machine, max_completion);
    if (config_.nc_mode) {
      // Behavioural checks are proved against true processing times; a
      // censored run gets the setup recomputation sweep instead.
      check_setup_accounting();
    } else {
      if (expect_fifo_order_ && unrestricted_) check_fifo_order();
      if (expect_work_conservation_) check_work_conservation(by_machine);
    }
    // The oracles reason about uninterrupted, clairvoyant schedules; they
    // apply to neither fault nor nc runs (the fuzzer's [nc-*] oracles cover
    // the latter).
    if (config_.bound_oracles && !config_.nc_mode) run_bound_oracles();
  }
  weighted_pending_ = true;

  open_ = false;
  ++runs_;
}

void InvariantAuditor::settle_weighted() const {
  if (!weighted_pending_) return;
  weighted_pending_ = false;
  // The shared weighted_flow_term / exact-sum recipe (model/schedule.cpp)
  // over the narrated completions — [weighted-accounting] compares these
  // against MetricsCollector and Schedule.
  last_fmax_w_ = 0;
  std::optional<Rational> exact(Rational(0));
  double approx = 0;
  for (const TaskRecord& rec : tasks_) {
    if (rec.phase != 3) continue;
    const double wterm =
        weighted_flow_term(rec.weight, rec.completion - rec.release);
    last_fmax_w_ = std::max(last_fmax_w_, wterm);
    approx += wterm;
    if (exact) {
      if (const auto rt = rational_from_double(wterm)) {
        try {
          exact = *exact + *rt;
        } catch (const std::overflow_error&) {
          exact.reset();
        }
      } else {
        exact.reset();
      }
    }
  }
  last_total_flow_w_ = exact ? exact->to_double() : approx;
}

InvariantAuditor::MachineSpans InvariantAuditor::bucket_by_machine() const {
  // Counting sort by machine, then one sort per machine. Tasks on machines
  // outside [0, m) were already reported as [eligibility] and are skipped.
  const std::size_t m = transitions_.size();
  MachineSpans out;
  out.offset.assign(m + 1, 0);
  const auto on_machine = [m](const TaskRecord& rec) {
    return rec.phase == 3 && rec.machine >= 0 &&
           static_cast<std::size_t>(rec.machine) < m;
  };
  for (const TaskRecord& rec : tasks_) {
    if (!on_machine(rec)) continue;
    ++out.offset[static_cast<std::size_t>(rec.machine) + 1];
  }
  for (std::size_t j = 0; j < m; ++j) out.offset[j + 1] += out.offset[j];
  out.spans.resize(out.offset[m]);
  std::vector<std::size_t> fill(out.offset.begin(), out.offset.end() - 1);
  for (const TaskRecord& rec : tasks_) {
    if (!on_machine(rec)) continue;
    out.spans[fill[static_cast<std::size_t>(rec.machine)]++] =
        Span{rec.start, rec.completion, rec.start + rec.proc};
  }
  for (std::size_t j = 0; j < m; ++j) {
    std::sort(out.spans.data() + out.offset[j],
              out.spans.data() + out.offset[j + 1],
              [](const Span& a, const Span& b) {
                return a.start != b.start ? a.start < b.start
                                          : a.completion < b.completion;
              });
  }
  return out;
}

void InvariantAuditor::check_overlap(const MachineSpans& by_machine) {
  // The narrated completion, not start + proc: in nc mode the machine is
  // additionally occupied by the setup charge ([setup-accounting] pins
  // completion == start + setup + proc, so this stays exact).
  for (std::size_t j = 0; j < by_machine.machines(); ++j) {
    const std::span<const Span> iv = by_machine.of(j);
    for (std::size_t k = 1; k < iv.size(); ++k) {
      const Span& prev = iv[k - 1];
      const Span& cur = iv[k];
      if (cur.start + config_.eps < prev.completion) {
        violation("overlap", "machine M" + std::to_string(j + 1) +
                                 " double-booked: [" + fmt(cur.start) +
                                 ", ...) starts inside [" + fmt(prev.start) +
                                 ", " + fmt(prev.completion) + ")");
      }
    }
  }
}

void InvariantAuditor::check_machine_events(const MachineSpans& by_machine,
                                            double makespan) {
  // The narrated busy periods must equal the merged task intervals: every
  // busy..idle pair covers a maximal run of back-to-back tasks.
  std::vector<std::pair<double, double>> runs;
  std::vector<std::pair<double, double>> narrated;
  for (std::size_t j = 0; j < transitions_.size(); ++j) {
    runs.clear();
    for (const Span& iv : by_machine.of(j)) {
      if (!runs.empty() && iv.start <= runs.back().second) {
        runs.back().second = std::max(runs.back().second, iv.completion);
      } else {
        runs.emplace_back(iv.start, iv.completion);
      }
    }
    const auto& trans = transitions_[j];
    if (trans.empty()) {
      if (!runs.empty()) {
        violation("busy-idle", "machine M" + std::to_string(j + 1) +
                                   " ran tasks but never reported busy");
      }
      continue;
    }
    narrated.clear();
    for (std::size_t k = 0; k < trans.size(); ++k) {
      if (trans[k].busy) {
        const double end =
            k + 1 < trans.size() ? trans[k + 1].time : makespan + 1;
        if (k + 1 >= trans.size()) {
          violation("busy-idle", "machine M" + std::to_string(j + 1) +
                                     " still busy at end of run (missing "
                                     "finish_observation?)");
        }
        narrated.emplace_back(trans[k].time, end);
      }
    }
    if (narrated.size() != runs.size()) {
      violation("busy-idle",
                "machine M" + std::to_string(j + 1) + " narrated " +
                    std::to_string(narrated.size()) + " busy periods but ran " +
                    std::to_string(runs.size()) + " task bursts");
      continue;
    }
    for (std::size_t k = 0; k < runs.size(); ++k) {
      if (narrated[k].first != runs[k].first ||
          narrated[k].second != runs[k].second) {
        violation("busy-idle", "machine M" + std::to_string(j + 1) +
                                   " busy period [" + fmt(narrated[k].first) +
                                   ", " + fmt(narrated[k].second) +
                                   ") != task burst [" + fmt(runs[k].first) +
                                   ", " + fmt(runs[k].second) + ")");
        break;
      }
    }
  }
}

void InvariantAuditor::check_fifo_order() {
  // Releases are non-decreasing (validated), so FIFO's queue discipline
  // means starts are too: an earlier-released task never starts later.
  for (std::size_t i = 1; i < tasks_.size(); ++i) {
    if (tasks_[i - 1].phase != 3 || tasks_[i].phase != 3) continue;
    if (tasks_[i].start + config_.eps < tasks_[i - 1].start) {
      violation("fifo-order",
                "task " + std::to_string(i) + " (released " +
                    fmt(tasks_[i].release) + ") starts at " +
                    fmt(tasks_[i].start) + " before task " +
                    std::to_string(i - 1) + " started at " +
                    fmt(tasks_[i - 1].start));
      return;  // one witness is enough; later pairs usually cascade
    }
  }
}

void InvariantAuditor::check_work_conservation(const MachineSpans& by_machine) {
  // Per machine: the idle gaps between merged task intervals (plus the
  // leading one). A waiting interval (r_i, S_i) of a task must not meet a
  // gap on any machine of M_i — that would be unforced idleness.
  const std::size_t m = by_machine.machines();
  std::vector<std::size_t> gap_offset(m + 1, 0);
  std::vector<std::pair<double, double>> gaps;
  for (std::size_t j = 0; j < m; ++j) {
    // Intervals end at start + proc. The spans are sorted by (start,
    // completion), not (start, end), but the first witness does not depend
    // on the order among equal starts: the first span of such a group
    // opens the group's only gap that is not nested inside an earlier one.
    double frontier = 0;
    for (const Span& sp : by_machine.of(j)) {
      if (sp.start > frontier) gaps.emplace_back(frontier, sp.start);
      frontier = std::max(frontier, sp.end);
    }
    // Trailing idleness: from the machine's last completion onwards it is
    // available forever.
    gaps.emplace_back(frontier, std::numeric_limits<double>::infinity());
    gap_offset[j + 1] = gaps.size();
  }
  // A machine's gaps have non-decreasing ends and starts, so the gaps that
  // can meet (r_i, S_i) are a contiguous range: skip those ending by r_i,
  // stop at the first starting at or after S_i. Every skipped gap overlaps
  // the wait by at most 0 <= eps, so the first witness is the one a full
  // scan finds. Releases do not decrease, so each machine keeps a cursor at
  // its first gap ending after the last release it served and only moves
  // it forward; a release below that (a [protocol] violation) re-finds its
  // place by bisection instead.
  std::vector<std::size_t> cursor(gap_offset.begin(), gap_offset.end() - 1);
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const TaskRecord& rec = tasks_[i];
    if (rec.phase != 3 || rec.start <= rec.release + config_.eps) continue;
    const auto ends_by_release = [&](const auto& gap) {
      return gap.second <= rec.release;
    };
    for (int j : rec.eligible.machines()) {
      if (j < 0 || j >= static_cast<int>(m)) continue;
      const auto uj = static_cast<std::size_t>(j);
      const auto* const first = gaps.data() + gap_offset[uj];
      const auto* const last = gaps.data() + gap_offset[uj + 1];
      const auto* it = gaps.data() + cursor[uj];
      if (it != first && !ends_by_release(it[-1])) {
        it = std::partition_point(first, last, ends_by_release);
      } else {
        while (it != last && ends_by_release(*it)) ++it;
        cursor[uj] = static_cast<std::size_t>(it - gaps.data());
      }
      for (; it != last; ++it) {
        const auto [lo, hi] = *it;
        if (lo >= rec.start) break;
        const double olo = std::max(lo, rec.release);
        const double ohi = std::min(hi, rec.start);
        if (ohi - olo > config_.eps) {
          violation("work-conservation",
                    "task " + std::to_string(i) + " waits in [" +
                        fmt(rec.release) + ", " + fmt(rec.start) +
                        ") while eligible machine M" + std::to_string(j + 1) +
                        " idles in [" + fmt(olo) + ", " + fmt(ohi) + ")");
          return;  // one witness is enough
        }
      }
    }
  }
}

void InvariantAuditor::check_setup_accounting() {
  // Recompute every machine's setup charges from the narrated dispatch
  // order: exactly nc_setup when the previous task on that machine had a
  // different processing set, the first task free. Tasks dispatch in
  // release (= index) order, so a single scan reproduces the engine's
  // bookkeeping; comparisons are bitwise (dyadic grid).
  const std::size_t m = static_cast<std::size_t>(std::max(info_.m, 0));
  std::vector<ProcSet> last_set(m);
  std::vector<bool> has_last(m, false);
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const TaskRecord& rec = tasks_[i];
    if (rec.phase < 1 || rec.machine < 0 ||
        rec.machine >= static_cast<int>(m)) {
      continue;
    }
    const auto uj = static_cast<std::size_t>(rec.machine);
    double expected = 0;
    if (has_last[uj] && !(last_set[uj] == rec.eligible)) {
      expected = config_.nc_setup;
    }
    last_set[uj] = rec.eligible;
    has_last[uj] = true;
    if (rec.setup != expected) {
      violation("setup-accounting",
                "task " + std::to_string(i) + " on M" +
                    std::to_string(rec.machine + 1) + " charged setup " +
                    fmt(rec.setup) + ", dispatch-order recomputation says " +
                    fmt(expected));
    }
  }
}

void InvariantAuditor::run_bound_oracles() {
  // Reconstruct the instance from the records. Events were validated
  // release-sorted, so indices align with task records.
  if (tasks_.empty() || info_.m <= 0) return;
  std::vector<Task> rebuilt;
  rebuilt.reserve(tasks_.size());
  for (const TaskRecord& rec : tasks_) {
    if (!(rec.proc > 0) || rec.release < 0 || !rec.eligible.within(info_.m) ||
        !(rec.weight > 0)) {
      return;
    }
    rebuilt.push_back(Task{.release = rec.release,
                           .proc = rec.proc,
                           .eligible = rec.eligible,
                           .weight = rec.weight});
  }
  const Instance inst(info_.m, std::move(rebuilt));

  double fmax = 0;
  for (const TaskRecord& rec : tasks_) {
    if (rec.phase != 3) return;
    fmax = std::max(fmax, rec.completion - rec.release);
  }
  const int n = inst.n();
  const bool unit =
      inst.unit_tasks() && integer_releases(inst) && n <= config_.unit_oracle_max_n;

  // [lb] Certified lower bounds never exceed any schedule's Fmax.
  double lb = lb_pmax(inst);
  if (n <= config_.oracle_max_n) lb = std::max(lb, lb_volume(inst));
  if (fmax + config_.eps < lb) {
    violation("lb", "Fmax " + fmt(fmax) + " below the certified lower bound " +
                        fmt(lb));
  }

  int unit_opt = -1;
  if (unit) {
    unit_opt = unit_optimal_fmax(inst);
    // [unit-opt] No schedule beats the exact unit-task optimum.
    if (fmax + config_.eps < unit_opt) {
      violation("unit-opt", "Fmax " + fmt(fmax) + " beats the exact optimum " +
                                std::to_string(unit_opt));
    }
  }

  if (!eft_or_fifo_ || !unrestricted_) return;
  const double ratio = 3.0 - 2.0 / inst.m();

  // [th1-bound] Theorem 1 at proof level: FIFO/EFT's Fmax is charged
  // against the pmax and volume lower bounds, so ALG <= (3 - 2/m) * LB.
  if (n <= config_.oracle_max_n) {
    const double denom = std::max(lb_pmax(inst), lb_volume(inst));
    if (fmax > ratio * denom + config_.eps) {
      violation("th1-bound", "Fmax " + fmt(fmax) + " > (3 - 2/m) * " +
                                 fmt(denom) + " = " + fmt(ratio * denom));
    }
  }

  // [unit-opt] Theorem 2: FIFO (hence EFT, via Prop. 1) is optimal on
  // unrestricted unit instances — equality, not just >=.
  if (unit && fmax > unit_opt + config_.eps) {
    violation("unit-opt", "FIFO/EFT Fmax " + fmt(fmax) +
                              " exceeds the unit-task optimum " +
                              std::to_string(unit_opt) +
                              " (Theorem 2 violated)");
  }

  // [prop1] Cross-replay the instance through the *other* implementation
  // (queue simulation vs immediate dispatch) and require the schedules to
  // coincide: start-for-start always, machine-for-machine when the audited
  // run's tie-break is known and deterministic.
  const AlgoTraits traits = algo_traits(info_.algo);
  const TieBreakKind tie = traits.tie_known ? traits.tie : TieBreakKind::kMin;
  const Schedule other = info_.algo == "FIFO"
                             ? [&] {
                                 EftDispatcher eft(TieBreakKind::kMin);
                                 return run_dispatcher(inst, eft);
                               }()
                             : fifo_schedule(inst, tie);
  const bool compare_machines = traits.tie_known;
  for (int i = 0; i < n; ++i) {
    const TaskRecord& rec = tasks_[static_cast<std::size_t>(i)];
    if (other.start(i) != rec.start) {
      violation("prop1", "task " + std::to_string(i) + " starts at " +
                             fmt(rec.start) + " but the FIFO<->EFT replay " +
                             "starts it at " + fmt(other.start(i)));
      break;
    }
    if (compare_machines && other.machine(i) != rec.machine) {
      violation("prop1", "task " + std::to_string(i) + " ran on M" +
                             std::to_string(rec.machine + 1) +
                             " but the FIFO<->EFT replay puts it on M" +
                             std::to_string(other.machine(i) + 1));
      break;
    }
  }
}

void InvariantAuditor::check_fault_run(const FaultPlan& plan,
                                       const RecoveryPolicy& policy,
                                       const FaultLog& log) {
  if (open_) {
    violation("protocol", "check_fault_run before on_run_end");
    return;
  }
  if (!config_.fault_mode) {
    violation("protocol", "check_fault_run without AuditConfig::fault_mode");
    return;
  }
  if (runs_ == 0) {
    violation("protocol", "check_fault_run before any completed run");
    return;
  }
  // violation() stamps runs_, which already points past the closed run;
  // rewind for the duration of this sweep so fault findings carry the same
  // run index as the streaming findings of the run they belong to.
  --runs_;
  const int n = static_cast<int>(tasks_.size());
  if (log.tasks() != n) {
    violation("fault-lifecycle", "fault log covers " +
                                     std::to_string(log.tasks()) +
                                     " tasks, the run released " +
                                     std::to_string(n));
    ++runs_;
    return;
  }

  // Group attempts chronologically per task; collect machine segments.
  std::vector<std::vector<const FaultAttempt*>> per_task(
      static_cast<std::size_t>(n));
  std::vector<std::vector<std::pair<double, double>>> segments(
      static_cast<std::size_t>(std::max(info_.m, 0)));
  for (const FaultAttempt& a : log.attempts()) {
    if (a.task < 0 || a.task >= n) {
      violation("fault-lifecycle",
                "attempt for unknown task " + std::to_string(a.task));
      continue;
    }
    per_task[static_cast<std::size_t>(a.task)].push_back(&a);
    if (a.machine >= 0 && a.machine < info_.m) {
      segments[static_cast<std::size_t>(a.machine)].emplace_back(a.start, a.end);
    }
  }

  const char* requeue_tag =
      policy.kind == RecoveryKind::kBackoff ? "fault-backoff" : "fault-requeue";
  constexpr double inf = std::numeric_limits<double>::infinity();
  for (int i = 0; i < n; ++i) {
    const TaskRecord& rec = tasks_[static_cast<std::size_t>(i)];
    const auto& attempts = per_task[static_cast<std::size_t>(i)];
    const std::string ti = "task " + std::to_string(i);
    const TaskFate fate = log.fate(i);
    if (fate == TaskFate::kPending) {
      violation("fault-lifecycle",
                ti + " left pending — drain_faults() never ran");
      continue;
    }
    if (attempts.empty()) {
      violation("fault-lifecycle", ti + " settled without any attempt");
      continue;
    }
    int kills = 0;
    for (std::size_t k = 0; k < attempts.size(); ++k) {
      const FaultAttempt& a = *attempts[k];
      if (k == 0 && (a.attempt != 0 || a.scheduled != rec.release)) {
        violation("fault-lifecycle",
                  ti + " first attempt not at its release time");
      }
      if (k > 0) {
        const FaultAttempt& prev = *attempts[k - 1];
        // Retry instants are a pure function of the policy; recompute and
        // demand exact agreement (dyadic grid: bitwise).
        const double due = prev.killed
                               ? policy.retry_time(i, prev.attempt, prev.end)
                               : prev.end;  // park wake-up
        if (a.scheduled != due) {
          violation(requeue_tag,
                    ti + " attempt " + std::to_string(k) + " scheduled at " +
                        fmt(a.scheduled) + ", policy says " + fmt(due));
        }
        const int expected_idx = prev.attempt + (prev.killed ? 1 : 0);
        if (a.attempt != expected_idx) {
          violation("fault-lifecycle",
                    ti + " attempt index jumps to " + std::to_string(a.attempt) +
                        " (expected " + std::to_string(expected_idx) + ")");
        }
      }
      if (a.machine < 0) {
        // Parked: every eligible machine must really be down, and the wake
        // must be the earliest recovery among them.
        double wake = inf;
        for (int j : rec.eligible.machines()) {
          if (plan.is_up(j, a.scheduled)) {
            violation("fault-eligibility",
                      ti + " parked at " + fmt(a.scheduled) +
                          " while eligible machine M" + std::to_string(j + 1) +
                          " was up");
            break;
          }
          wake = std::min(wake, plan.next_up(j, a.scheduled));
        }
        if (a.end != wake) {
          violation(requeue_tag, ti + " park wake-up " + fmt(a.end) +
                                     " != earliest eligible recovery " +
                                     fmt(wake));
        }
        if (k + 1 == attempts.size() && fate != TaskFate::kDropped) {
          violation("fault-lifecycle",
                    ti + " ends parked but was not dropped");
        }
        continue;
      }
      if (!rec.eligible.contains(a.machine)) {
        violation("fault-eligibility",
                  ti + " attempt " + std::to_string(k) + " ran on M" +
                      std::to_string(a.machine + 1) + " not in its set " +
                      rec.eligible.str());
        continue;
      }
      if (!plan.is_up(a.machine, a.start)) {
        violation("fault-eligibility",
                  ti + " starts at " + fmt(a.start) + " on M" +
                      std::to_string(a.machine + 1) + " while it is down");
      }
      const double overlap = plan.downtime(a.machine, a.start, a.end);
      if (overlap > 0) {
        violation("fault-downtime",
                  ti + " executes " + fmt(overlap) + " units inside a down "
                      "interval of M" + std::to_string(a.machine + 1) +
                      " (segment [" + fmt(a.start) + ", " + fmt(a.end) + "))");
      }
      if (a.killed) {
        ++kills;
        const double crash = plan.next_down(a.machine, a.start);
        if (a.end != crash) {
          violation("fault-downtime",
                    ti + " killed at " + fmt(a.end) + " but M" +
                        std::to_string(a.machine + 1) + "'s crash is at " +
                        fmt(crash));
        }
      } else if (k + 1 != attempts.size()) {
        violation("fault-lifecycle",
                  ti + " has attempts after a successful completion");
      }
    }

    const FaultAttempt& last = *attempts.back();
    if (fate == TaskFate::kCompleted) {
      if (last.machine < 0 || last.killed) {
        violation("fault-lifecycle",
                  ti + " marked completed but its last attempt did not finish");
        continue;
      }
      if (log.completion(i) != last.end) {
        violation("fault-accounting", ti + " log completion " +
                                          fmt(log.completion(i)) +
                                          " != last segment end " +
                                          fmt(last.end));
      }
      // Exact work accounting across kill/requeue: restart policies redo
      // everything (final segment is exactly p_i); checkpoint retains every
      // segment (Rational sum over all of them equals p_i).
      bool exact_ok = false;
      double total = 0;
      if (policy.kind == RecoveryKind::kCheckpoint) {
        auto sum = rational_from_double(0.0);
        bool representable = sum.has_value();
        for (const FaultAttempt* a : attempts) {
          if (a->machine < 0) continue;
          total += a->work();
          const auto s = rational_from_double(a->start);
          const auto e = rational_from_double(a->end);
          if (representable && s && e) {
            sum = *sum + (*e - *s);
          } else {
            representable = false;
          }
        }
        const auto p = rational_from_double(rec.proc);
        exact_ok = representable && p && *sum == *p;
      } else {
        total = last.work();
        exact_ok = last.end == last.start + rec.proc;
        if (!exact_ok) {
          const auto s = rational_from_double(last.start);
          const auto p = rational_from_double(rec.proc);
          const auto e = rational_from_double(last.end);
          exact_ok = s && p && e && *s + *p == *e;
        }
      }
      // Off-grid inputs (cluster_sim's exponential service times) round the
      // checkpointed remainders, so fall back to an eps comparison there.
      if (!exact_ok && std::abs(total - rec.proc) > config_.eps) {
        violation("fault-accounting",
                  ti + " executed " + fmt(total) + " units of work, owes " +
                      fmt(rec.proc));
      }
      // The narrated stream must agree with the log's successful attempt.
      if (rec.phase != 3) {
        violation("fault-accounting",
                  ti + " completed in the log but not in the event stream");
      } else if (rec.completion != last.end || rec.start != last.start ||
                 rec.machine != last.machine) {
        violation("fault-accounting",
                  ti + ": event stream (M" + std::to_string(rec.machine + 1) +
                      ", [" + fmt(rec.start) + ", " + fmt(rec.completion) +
                      ")) diverges from the fault log (M" +
                      std::to_string(last.machine + 1) + ", [" +
                      fmt(last.start) + ", " + fmt(last.end) + "))");
      }
    } else {  // kDropped
      if (rec.phase == 3) {
        violation("fault-lifecycle",
                  ti + " dropped in the log but completed in the event stream");
      }
      const bool budget_exhausted =
          last.machine >= 0 && last.killed && kills == policy.max_retries + 1;
      const bool stranded = last.machine < 0 && last.end == inf;
      if (!budget_exhausted && !stranded) {
        violation("fault-lifecycle",
                  ti + " dropped without exhausting its " +
                      std::to_string(policy.max_retries) +
                      "-retry budget or being stranded");
      }
    }
  }

  // [fault-overlap]: per machine, segments (killed ones included) must not
  // overlap — exact comparison, touching allowed.
  for (std::size_t j = 0; j < segments.size(); ++j) {
    auto& segs = segments[j];
    std::sort(segs.begin(), segs.end());
    for (std::size_t k = 1; k < segs.size(); ++k) {
      if (segs[k].first < segs[k - 1].second) {
        violation("fault-overlap",
                  "machine M" + std::to_string(j + 1) + " double-booked: [" +
                      fmt(segs[k].first) + ", ...) starts inside [" +
                      fmt(segs[k - 1].first) + ", " + fmt(segs[k - 1].second) +
                      ")");
        break;
      }
    }
  }
  ++runs_;
}

void InvariantAuditor::check_control_run(const ControlLog& log,
                                         const ControlConfig& config,
                                         int m, const LayoutSpec& initial) {
  if (open_) {
    violation("protocol", "check_control_run before on_run_end");
    return;
  }
  // Same run-index rewind as check_fault_run: control findings should carry
  // the index of the run whose log this is.
  const bool rewind = runs_ > 0;
  if (rewind) --runs_;

  const auto& decisions = log.decisions();
  const auto& observations = log.observations();

  // [control-determinism]: a fresh controller fed the logged observations
  // must reproduce every logged decision bitwise. One divergence poisons
  // everything after it, so stop at the first.
  if (observations.size() != decisions.size()) {
    violation("control-determinism",
              "log holds " + std::to_string(observations.size()) +
                  " observations but " + std::to_string(decisions.size()) +
                  " decisions");
  } else {
    try {
      ReplicationController replay(m, initial, config);
      for (std::size_t e = 0; e < observations.size(); ++e) {
        const ControlDecision d = replay.decide(observations[e]);
        if (d.str() != decisions[e].str()) {
          violation("control-determinism",
                    "epoch " + std::to_string(e) + ": replay decided '" +
                        d.str() + "', log recorded '" + decisions[e].str() +
                        "'");
          break;
        }
      }
    } catch (const std::exception& ex) {
      violation("control-determinism",
                std::string("replay controller threw: ") + ex.what());
    }
  }

  // [control-movement-bound]: bounded, contiguous, single-migration moves.
  const int max_move =
      config.max_move > 0 ? config.max_move : std::max(1, m / 4);
  int frontier = m;  // owners already migrated; m = no migration in flight
  for (const ControlDecision& d : decisions) {
    const std::string ei = "epoch " + std::to_string(d.epoch);
    if (d.moved_lo < 0 || d.moved_hi > m || d.moved_lo > d.moved_hi) {
      violation("control-movement-bound",
                ei + ": moved range [" + std::to_string(d.moved_lo) + ", " +
                    std::to_string(d.moved_hi) + ") outside [0, " +
                    std::to_string(m) + ")");
      continue;
    }
    if (d.moved_owners() > max_move) {
      violation("control-movement-bound",
                ei + ": moved " + std::to_string(d.moved_owners()) +
                    " owners, bound is " + std::to_string(max_move));
    }
    if (d.switched) {
      if (frontier < m) {
        violation("control-movement-bound",
                  ei + ": new migration began with one still in flight "
                       "(frontier " +
                      std::to_string(frontier) + " of " + std::to_string(m) +
                      ")");
      }
      const int dk = d.target.k - d.from.k;
      if (dk > 1 || dk < -1) {
        violation("control-movement-bound",
                  ei + ": k jumped " + std::to_string(d.from.k) + " -> " +
                      std::to_string(d.target.k) + " in one switch");
      }
      if (d.moved_lo != 0) {
        violation("control-movement-bound",
                  ei + ": switch epoch's move starts at owner " +
                      std::to_string(d.moved_lo) + ", not 0");
      }
      frontier = d.moved_hi;
    } else if (d.moved_owners() > 0) {
      if (d.moved_lo != (frontier == m ? 0 : frontier)) {
        violation("control-movement-bound",
                  ei + ": migration step [" + std::to_string(d.moved_lo) +
                      ", " + std::to_string(d.moved_hi) +
                      ") is not contiguous with frontier " +
                      std::to_string(frontier));
      }
      frontier = d.moved_hi;
    }
  }

  // [control-setup-accounting]: every charge names an owner some decision
  // really moved (its replica set changed), exactly setup_cost each, at
  // most once per (owner, decision epoch).
  std::vector<const ControlDecision*> by_epoch;
  for (const ControlDecision& d : decisions) {
    const std::size_t e = static_cast<std::size_t>(d.epoch);
    if (by_epoch.size() <= e) by_epoch.resize(e + 1, nullptr);
    by_epoch[e] = &d;
  }
  std::vector<std::vector<bool>> charged(by_epoch.size());
  for (const ControlLog::SetupCharge& c : log.charges()) {
    const std::string ci =
        "charge owner=" + std::to_string(c.owner) + " epoch=" +
        std::to_string(c.epoch);
    if (c.amount != config.setup_cost) {
      violation("control-setup-accounting",
                ci + ": amount " + fmt(c.amount) + " != setup cost " +
                    fmt(config.setup_cost));
    }
    if (c.epoch < 0 || static_cast<std::size_t>(c.epoch) >= by_epoch.size() ||
        by_epoch[static_cast<std::size_t>(c.epoch)] == nullptr) {
      violation("control-setup-accounting",
                ci + ": no decision recorded for that epoch");
      continue;
    }
    const ControlDecision& d = *by_epoch[static_cast<std::size_t>(c.epoch)];
    if (c.owner < d.moved_lo || c.owner >= d.moved_hi) {
      violation("control-setup-accounting",
                ci + ": owner outside the epoch's moved range [" +
                    std::to_string(d.moved_lo) + ", " +
                    std::to_string(d.moved_hi) + ")");
      continue;
    }
    if (replica_set(d.from.strategy, c.owner, d.from.k, m) ==
        replica_set(d.target.strategy, c.owner, d.target.k, m)) {
      violation("control-setup-accounting",
                ci + ": owner's replica set did not change in that epoch");
    }
    auto& seen = charged[static_cast<std::size_t>(c.epoch)];
    if (seen.empty()) seen.resize(static_cast<std::size_t>(m), false);
    if (c.owner >= 0 && c.owner < m) {
      if (seen[static_cast<std::size_t>(c.owner)]) {
        violation("control-setup-accounting", ci + ": charged twice");
      }
      seen[static_cast<std::size_t>(c.owner)] = true;
    }
  }

  if (rewind) ++runs_;
}

std::string InvariantAuditor::report() const {
  std::string out;
  for (const auto& v : violations_) {
    out += v;
    out += '\n';
  }
  if (!out.empty()) out.pop_back();
  return out;
}

void InvariantAuditor::throw_if_violated() const {
  if (!ok()) throw std::runtime_error("InvariantAuditor: " + report());
}

std::vector<std::string> audit_schedule(const Schedule& sched,
                                        const std::string& algo,
                                        AuditConfig config) {
  InvariantAuditor auditor(std::move(config));
  replay_schedule(sched, RunInfo{sched.instance().m(), algo, {}}, auditor);
  return auditor.violations();
}

}  // namespace flowsched
