#include "check/audit.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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

// Size gates of the bound oracles: the O(n^2) volume bound and the Th.1
// check run only up to kOracleMaxN tasks, the unit-task matching up to
// kUnitOracleMaxN.
constexpr int kOracleMaxN = 400;
constexpr int kUnitOracleMaxN = 160;

// splitmix64's finalizer.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// One completion's term of the order-independent digest (a wrapping sum)
// that check_fault_run compares between the event stream and the log.
std::uint64_t completion_term(int task, int machine, double start,
                              double completion) {
  const std::uint64_t id =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(task)) << 32 |
      static_cast<std::uint32_t>(machine);
  return mix(mix(mix(id) ^ std::bit_cast<std::uint64_t>(start)) ^
             std::bit_cast<std::uint64_t>(completion));
}

}  // namespace

void InvariantAuditor::Witness::offer(int t, int p, const std::string& w) {
  if (task >= 0 && (task < t || (task == t && pos <= p))) return;
  task = t;
  pos = p;
  what = w;
}

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
  released_ = 0;
  in_flight_.clear();
  spare_ = {};
  retained_.clear();
  machines_.assign(static_cast<std::size_t>(std::max(info.m, 0)), Machine{});
  unrestricted_ = true;
  last_release_ = 0;
  max_completion_ = 0;
  fifo_starts_.clear();
  fifo_witness_ = {};
  gap_witness_ = {};
  setup_lines_.clear();
  completions_ = 0;
  completion_digest_ = 0;
  expect_fifo_order_ = false;
  expect_work_conservation_ = config_.force_work_conservation;
  eft_or_fifo_ = false;
  if (info.m <= 0) violation("protocol", "RunInfo.m <= 0");
  if (config_.infer_from_algo) {
    const AlgoTraits traits = algo_traits(info.algo);
    expect_fifo_order_ = traits.fifo_class;
    expect_work_conservation_ =
        expect_work_conservation_ || traits.work_conserving;
    eft_or_fifo_ = traits.eft_or_fifo;
  }
  // The behavioural checks are proved against uninterrupted runs with true
  // processing times: neither fault nor nc runs qualify.
  if (config_.fault_mode || config_.nc_mode) {
    expect_fifo_order_ = expect_work_conservation_ = false;
  }
}

void InvariantAuditor::on_event(const ObsEvent& e) {
  if (!open_) {
    violation("protocol", "event outside a run");
    return;
  }
  if (e.kind == ObsEventKind::kMachineBusy ||
      e.kind == ObsEventKind::kMachineIdle) {
    on_machine_event(e);
  } else {
    on_task_event(e);
  }
}

void InvariantAuditor::on_task_event(const ObsEvent& e) {
  if (e.kind == ObsEventKind::kTaskReleased) {
    if (e.task != released_) {
      violation("protocol", "task " + std::to_string(e.task) +
                                " released out of order (expected " +
                                std::to_string(released_) + ")");
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
                                     " processing set " + rec.eligible.str() +
                                     " outside [0, " +
                                     std::to_string(info_.m) + ")");
      }
    }
    if (rec.eligible.size() != info_.m) unrestricted_ = false;
    ++released_;
    if (config_.bound_oracles) retained_.push_back(rec);
    if (spare_.empty()) {
      in_flight_.emplace_hint(in_flight_.end(), e.task, std::move(rec));
    } else {
      spare_.key() = e.task;
      spare_.mapped() = std::move(rec);
      in_flight_.insert(in_flight_.end(), std::move(spare_));
    }
    return;
  }

  const auto it = in_flight_.find(e.task);
  if (it == in_flight_.end()) {
    // Every released task is in flight until its completed event.
    if (e.task < 0 || e.task >= released_) {
      violation("protocol",
                "event for unreleased task " + std::to_string(e.task));
    } else {
      violation("protocol", "task " + std::to_string(e.task) +
                                " lifecycle out of order (phase 3)");
    }
    return;
  }
  TaskRecord& rec = it->second;
  const int expected_phase = e.kind == ObsEventKind::kTaskDispatched ? 0
                             : e.kind == ObsEventKind::kTaskStarted  ? 1
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
                                " release/proc/weight drifted across events");
  }
  const bool on_machine = e.machine >= 0 && e.machine < info_.m;
  if (e.kind == ObsEventKind::kTaskDispatched) {
    rec.machine = e.machine;
    rec.setup = e.setup;
    rec.immediate = e.time == rec.release;
    if (!on_machine) {
      violation("eligibility", "task " + std::to_string(e.task) +
                                   " dispatched to machine " +
                                   std::to_string(e.machine) + " outside [0, " +
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
    if (config_.nc_mode && !config_.fault_mode && on_machine) {
      // Recompute the setup charge in dispatch order: nc_setup exactly when
      // the machine's previous task had a different processing set, the
      // first task free. Comparisons are bitwise (dyadic grid).
      Machine& mj = machines_[static_cast<std::size_t>(e.machine)];
      const double expected =
          mj.has_last_set && !(mj.last_set == rec.eligible) ? config_.nc_setup
                                                            : 0.0;
      mj.last_set = rec.eligible;
      mj.has_last_set = true;
      if (rec.setup != expected &&
          static_cast<int>(setup_lines_.size()) < config_.max_violations) {
        setup_lines_.push_back(
            "task " + std::to_string(e.task) + " on M" +
            std::to_string(e.machine + 1) + " charged setup " +
            fmt(rec.setup) + ", dispatch-order recomputation says " +
            fmt(expected));
      }
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
    // An immediate-dispatch engine commits the task to its machine at the
    // release instant, so it starts when that machine's last task ends.
    if (rec.immediate && on_machine && e.machine == rec.machine &&
        !config_.fault_mode) {
      const double expected = std::max(
          rec.release, machines_[static_cast<std::size_t>(e.machine)].last_completion);
      if (e.time != expected) {
        violation("accounting",
                  "task " + std::to_string(e.task) + " starts at " +
                      fmt(e.time) + " on M" + std::to_string(e.machine + 1) +
                      ", expected max(release, last completion) = " +
                      fmt(expected));
      }
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
    // The node is reused by the next release: a run with one task in
    // flight at a time allocates nothing per task.
    spare_ = in_flight_.extract(it);
    if (config_.bound_oracles) {
      retained_[static_cast<std::size_t>(e.task)] = spare_.mapped();
    }
    complete(e.task, spare_.mapped());
  }
}

void InvariantAuditor::complete(int task, const TaskRecord& rec) {
  max_completion_ = std::max(max_completion_, rec.completion);
  if (config_.fault_mode) {
    ++completions_;
    completion_digest_ +=
        completion_term(task, rec.machine, rec.start, rec.completion);
    return;
  }
  if (rec.machine >= 0 && rec.machine < info_.m) {
    machines_[static_cast<std::size_t>(rec.machine)].last_completion =
        rec.completion;
    add_interval(rec.machine, Span{rec.start, rec.completion});
    if (expect_work_conservation_) {
      add_work_interval(rec.machine, Span{rec.start, rec.start + rec.proc},
                        rec.release);
    }
  }
  if (expect_work_conservation_ && rec.start > rec.release + config_.eps) {
    search_gaps(task, rec);
  }
  if (expect_fifo_order_ && unrestricted_) {
    fifo_starts_[task] = {rec.start, rec.release};
    check_fifo_pair(task);
  }
}

void InvariantAuditor::add_interval(int machine, Span iv) {
  Machine& mj = machines_[static_cast<std::size_t>(machine)];
  if (!mj.group.empty() && iv.start != mj.group.front().start) {
    if (iv.start < mj.group.front().start) {
      violation("protocol", "machine M" + std::to_string(machine + 1) +
                                " narrates a start at " + fmt(iv.start) +
                                " after one at " +
                                fmt(mj.group.front().start));
    }
    flush_group(machine);
  }
  mj.group.push_back(iv);
}

void InvariantAuditor::flush_group(int machine) {
  // [overlap] and the busy bursts read a machine's intervals sorted by
  // (start, completion); the group shares one start.
  Machine& mj = machines_[static_cast<std::size_t>(machine)];
  if (mj.group.size() > 1) {
    std::sort(mj.group.begin(), mj.group.end(),
              [](const Span& a, const Span& b) { return a.end < b.end; });
  }
  for (const Span& iv : mj.group) {
    // The narrated completion, not start + proc: in nc mode the machine is
    // additionally occupied by the setup charge ([setup-accounting] pins
    // completion == start + setup + proc, so this stays exact).
    if (mj.has_prev && iv.start + config_.eps < mj.prev.end &&
        static_cast<int>(mj.overlaps.size()) < config_.max_violations) {
      mj.overlaps.push_back("machine M" + std::to_string(machine + 1) +
                            " double-booked: [" + fmt(iv.start) +
                            ", ...) starts inside [" + fmt(mj.prev.start) +
                            ", " + fmt(mj.prev.end) + ")");
    }
    mj.prev = iv;
    mj.has_prev = true;
    if (mj.burst_open && iv.start <= mj.burst.end) {
      mj.burst.end = std::max(mj.burst.end, iv.end);
    } else {
      if (mj.burst_open) close_burst(machine);
      mj.burst = iv;
      mj.burst_open = true;
    }
  }
  mj.group.clear();
}

void InvariantAuditor::close_burst(int machine) {
  Machine& mj = machines_[static_cast<std::size_t>(machine)];
  mj.bursts.push_back(mj.burst);
  ++mj.n_bursts;
  match_busy(machine);
}

void InvariantAuditor::close_period(int machine, Span period) {
  Machine& mj = machines_[static_cast<std::size_t>(machine)];
  mj.periods.push_back(period);
  ++mj.n_periods;
  match_busy(machine);
}

void InvariantAuditor::match_busy(int machine) {
  // The k-th narrated busy period must equal the k-th task burst; the
  // first unequal pair is the witness unless the counts differ.
  Machine& mj = machines_[static_cast<std::size_t>(machine)];
  std::size_t k = 0;
  for (; k < mj.periods.size() && k < mj.bursts.size(); ++k) {
    const Span& p = mj.periods[k];
    const Span& b = mj.bursts[k];
    if (mj.mismatch.empty() && (p.start != b.start || p.end != b.end)) {
      mj.mismatch = "machine M" + std::to_string(machine + 1) +
                    " busy period [" + fmt(p.start) + ", " + fmt(p.end) +
                    ") != task burst [" + fmt(b.start) + ", " + fmt(b.end) +
                    ")";
    }
  }
  const auto matched = static_cast<std::ptrdiff_t>(k);
  mj.periods.erase(mj.periods.begin(), mj.periods.begin() + matched);
  mj.bursts.erase(mj.bursts.begin(), mj.bursts.begin() + matched);
}

void InvariantAuditor::on_machine_event(const ObsEvent& e) {
  if (e.machine < 0 || e.machine >= info_.m) {
    violation("protocol",
              "machine event outside [0, " + std::to_string(info_.m) + ")");
    return;
  }
  Machine& mj = machines_[static_cast<std::size_t>(e.machine)];
  const auto name = [&] { return "machine M" + std::to_string(e.machine + 1); };
  const bool busy = e.kind == ObsEventKind::kMachineBusy;
  if (mj.narrated && mj.last_busy == busy) {
    violation("busy-idle", name() + " repeated " + (busy ? "busy" : "idle") +
                               " transition at " + fmt(e.time));
  }
  if (!mj.narrated && !busy) {
    violation("busy-idle", name() + " goes idle before ever being busy");
  }
  if (mj.narrated && e.time < mj.last_edge) {
    violation("busy-idle", name() + " transitions move backwards in time");
  }
  // A busy edge opens a narrated period; the next edge, whatever it is,
  // closes it.
  if (mj.narrated && mj.last_busy && !config_.fault_mode) {
    close_period(e.machine, Span{mj.last_edge, e.time});
  }
  mj.narrated = true;
  mj.last_busy = busy;
  mj.last_edge = e.time;
}

void InvariantAuditor::add_work_interval(int machine, Span iv,
                                         double release) {
  // The idle gaps of a machine lie between its merged intervals, which end
  // at start + proc here; the first, from 0, leads. A start past the
  // frontier closes a gap, final once closed: the waits still open on this
  // machine meet it now, and it is kept while a task in flight, the task
  // completing now (`release`) or a later release could still meet it.
  Machine& mj = machines_[static_cast<std::size_t>(machine)];
  if (iv.start > mj.frontier) {
    const Span gap{mj.frontier, iv.start};
    std::erase_if(mj.waiters, [&](const Waiter& w) {
      const double olo = std::max(gap.start, w.release);
      const double ohi = std::min(gap.end, w.start);
      if (!(ohi - olo > config_.eps)) return false;
      add_gap_witness(w, machine, Span{olo, ohi});
      return true;
    });
    double floor = std::min(last_release_, release);
    if (!in_flight_.empty()) {
      floor = std::min(floor, in_flight_.begin()->second.release);
    }
    const auto stale = std::partition_point(
        mj.gaps.begin(), mj.gaps.end(),
        [floor](const Span& g) { return g.end <= floor; });
    mj.gaps.erase(mj.gaps.begin(), stale);
    mj.gaps.push_back(gap);
  }
  mj.frontier = std::max(mj.frontier, iv.end);
  // Later gaps start at the frontier or beyond: a wait that ends within
  // eps of it can no longer meet one.
  std::erase_if(mj.waiters, [&](const Waiter& w) {
    return !(w.start - std::max(mj.frontier, w.release) > config_.eps);
  });
}

void InvariantAuditor::search_gaps(int task, const TaskRecord& rec) {
  // The waiting interval (r_i, S_i) of a task must not meet a gap on any
  // machine of M_i by more than eps — that would be unforced idleness. The
  // witness is the first gap in time of the first such machine in M_i of
  // the first such task; Witness::offer keeps the smallest (task, pos).
  if (gap_witness_.task >= 0 && gap_witness_.task < task) return;
  const auto& eligible = rec.eligible.machines();
  for (std::size_t pos = 0; pos < eligible.size(); ++pos) {
    const int j = eligible[pos];
    if (j < 0 || j >= info_.m) continue;
    Machine& mj = machines_[static_cast<std::size_t>(j)];
    const Waiter w{task, static_cast<int>(pos), rec.release, rec.start};
    for (const Span& gap : mj.gaps) {
      if (gap.end <= w.release) continue;
      if (gap.start >= w.start) break;
      const double olo = std::max(gap.start, w.release);
      const double ohi = std::min(gap.end, w.start);
      if (ohi - olo > config_.eps) {
        add_gap_witness(w, j, Span{olo, ohi});
        return;  // later machines of M_i come after this witness
      }
    }
    if (w.start - std::max(mj.frontier, w.release) > config_.eps) {
      mj.waiters.push_back(w);
    }
  }
}

void InvariantAuditor::add_gap_witness(const Waiter& w, int machine,
                                       Span idle) {
  gap_witness_.offer(w.task, w.pos,
                     "task " + std::to_string(w.task) + " waits in [" +
                         fmt(w.release) + ", " + fmt(w.start) +
                         ") while eligible machine M" +
                         std::to_string(machine + 1) + " idles in [" +
                         fmt(idle.start) + ", " + fmt(idle.end) + ")");
}

bool InvariantAuditor::completed(int task) const {
  return task >= 0 && task < released_ && !in_flight_.contains(task);
}

void InvariantAuditor::check_fifo_pair(int task) {
  // Releases are non-decreasing (validated), so FIFO's queue discipline
  // means starts are too: an earlier-released task never starts later.
  // Each adjacent pair is compared once both of its tasks completed.
  const auto compare = [&](int a) {
    const auto [start_a, release_a] = fifo_starts_.at(a);
    const auto [start_b, release_b] = fifo_starts_.at(a + 1);
    if (start_b + config_.eps < start_a) {
      fifo_witness_.offer(a + 1, 0,
                          "task " + std::to_string(a + 1) + " (released " +
                              fmt(release_b) + ") starts at " + fmt(start_b) +
                              " before task " + std::to_string(a) +
                              " started at " + fmt(start_a));
    }
  };
  if (completed(task - 1)) compare(task - 1);
  if (completed(task + 1)) compare(task);
  for (const int k : {task - 1, task, task + 1}) {
    if ((k == 0 || completed(k - 1)) && completed(k + 1)) fifo_starts_.erase(k);
  }
}

void InvariantAuditor::on_run_end(double makespan) {
  if (!open_) {
    violation("protocol", "on_run_end without on_run_begin");
    return;
  }
  // Under faults a dropped task legitimately never completes; its fate is
  // validated against the log in check_fault_run.
  if (!config_.fault_mode) {
    for (const auto& [task, rec] : in_flight_) {
      violation("protocol", "task " + std::to_string(task) +
                                " never completed (phase " +
                                std::to_string(rec.phase) + ")");
    }
  }
  if (makespan + config_.eps < max_completion_) {
    violation("accounting", "reported makespan " + fmt(makespan) +
                                " below the last completion " +
                                fmt(max_completion_));
  }
  if (!config_.fault_mode) {
    // Fault runs narrate no busy/idle stream and may checkpoint partial
    // segments; [fault-overlap] and friends replace these in
    // check_fault_run.
    for (std::size_t j = 0; j < machines_.size(); ++j) {
      Machine& mj = machines_[j];
      flush_group(static_cast<int>(j));
      if (mj.burst_open) close_burst(static_cast<int>(j));
      mj.burst_open = false;
      for (const std::string& what : mj.overlaps) violation("overlap", what);
    }
    for (std::size_t j = 0; j < machines_.size(); ++j) {
      Machine& mj = machines_[j];
      const std::string name = "machine M" + std::to_string(j + 1);
      if (!mj.narrated) {
        if (mj.n_bursts > 0) {
          violation("busy-idle", name + " ran tasks but never reported busy");
        }
        continue;
      }
      if (mj.last_busy) {
        violation("busy-idle", name + " still busy at end of run (missing "
                                      "finish_observation?)");
        close_period(static_cast<int>(j),
                     Span{mj.last_edge, max_completion_ + 1});
      }
      if (mj.n_periods != mj.n_bursts) {
        violation("busy-idle", name + " narrated " +
                                   std::to_string(mj.n_periods) +
                                   " busy periods but ran " +
                                   std::to_string(mj.n_bursts) +
                                   " task bursts");
      } else if (!mj.mismatch.empty()) {
        violation("busy-idle", mj.mismatch);
      }
    }
    if (config_.nc_mode) {
      for (const std::string& what : setup_lines_) {
        violation("setup-accounting", what);
      }
    }
    if (expect_fifo_order_ && unrestricted_ && fifo_witness_.task >= 0) {
      violation("fifo-order", fifo_witness_.what);
    }
    if (expect_work_conservation_) {
      // From its last completion onwards a machine idles forever.
      for (std::size_t j = 0; j < machines_.size(); ++j) {
        const Machine& mj = machines_[j];
        for (const Waiter& w : mj.waiters) {
          const double olo = std::max(mj.frontier, w.release);
          if (w.start - olo > config_.eps) {
            add_gap_witness(w, static_cast<int>(j), Span{olo, w.start});
          }
        }
      }
      if (gap_witness_.task >= 0) {
        violation("work-conservation", gap_witness_.what);
      }
    }
    // The oracles reason about uninterrupted, clairvoyant schedules; they
    // apply to neither fault nor nc runs (the fuzzer's [nc-*] oracles cover
    // the latter).
    if (config_.bound_oracles && !config_.nc_mode) run_bound_oracles();
  }

  open_ = false;
  ++runs_;
}

void InvariantAuditor::run_bound_oracles() {
  // Reconstruct the instance from the records. Events were validated
  // release-sorted, so indices align with task records.
  if (retained_.empty() || info_.m <= 0) return;
  std::vector<Task> rebuilt;
  rebuilt.reserve(retained_.size());
  for (const TaskRecord& rec : retained_) {
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
  for (const TaskRecord& rec : retained_) {
    if (rec.phase != 3) return;
    fmax = std::max(fmax, rec.completion - rec.release);
  }
  const int n = inst.n();
  const bool unit =
      inst.unit_tasks() && integer_releases(inst) && n <= kUnitOracleMaxN;

  // [lb] Certified lower bounds never exceed any schedule's Fmax.
  double lb = lb_pmax(inst);
  if (n <= kOracleMaxN) lb = std::max(lb, lb_volume(inst));
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
  if (n <= kOracleMaxN) {
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
    const TaskRecord& rec = retained_[static_cast<std::size_t>(i)];
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
                                       const FaultLog& log,
                                       std::span<const Task> tasks) {
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
  const int n = released_;
  if (tasks.size() != static_cast<std::size_t>(n)) {
    violation("protocol", "check_fault_run got " +
                              std::to_string(tasks.size()) +
                              " tasks, the run released " + std::to_string(n));
    ++runs_;
    return;
  }
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
  long long log_completions = 0;
  std::uint64_t log_digest = 0;
  for (int i = 0; i < n; ++i) {
    const Task& rec = tasks[static_cast<std::size_t>(i)];
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
      ++log_completions;
      log_digest += completion_term(i, last.machine, last.start, last.end);
    } else {  // kDropped
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

  // The narrated completions must be the log's successful attempts.
  if (log_completions != completions_ || log_digest != completion_digest_) {
    violation("fault-accounting",
              "event stream diverges from the fault log: " +
                  std::to_string(completions_) + " narrated completions, " +
                  std::to_string(log_completions) + " in the log" +
                  (log_completions == completions_
                       ? ", with different machines or times"
                       : ""));
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

std::vector<std::string> audit_schedule(const Schedule& sched,
                                        const std::string& algo,
                                        AuditConfig config) {
  InvariantAuditor auditor(std::move(config));
  replay_schedule(sched, RunInfo{sched.instance().m(), algo, {}}, auditor);
  return auditor.violations();
}

}  // namespace flowsched
