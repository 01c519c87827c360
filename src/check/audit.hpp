// InvariantAuditor: online validation of scheduling runs against the
// paper's machine-checkable theorems.
//
// The auditor is a SchedObserver (obs/observer.hpp): attach it to any
// engine — OnlineEngine, the bare StreamingEngine core, the FIFO
// simulators, the kvstore cluster simulators, or a replayed Schedule —
// alone or fanned out beside MetricsCollector / TraceRecorder through a
// MulticastObserver. It costs nothing when detached (the engines' usual
// null-pointer contract) and checks every invariant as the events arrive,
// holding O(m + tasks in flight) state: per machine the last narrated
// completion, the open busy edge, the last processing set (nc mode) and
// the idle gaps a still-waiting task could witness; per task only the
// record between its released and completed events. A check whose witness
// may still change buffers its first witness until it is final;
// on_run_end emits the buffered witnesses in catalog order. Only the bound
// oracles rebuild the instance, so only they keep every record.
//
// Narration contract: on each machine, task starts arrive in
// non-decreasing order, each task's completed event following its started
// event before the next start on that machine. Every engine, both FIFO
// simulators and replay_schedule narrate this way; a start that breaks it
// is a [protocol] violation.
//
// Invariant catalog (docs/testing.md lists the theorem behind each):
//
//   structural (always on)
//     [protocol]     begin/event/end bracketing, sequential task ids,
//                    non-decreasing releases, per-task event lifecycle,
//                    every task completes, the narration contract
//     [eligibility]  dispatched machine is in M_i (processing-set
//                    feasibility, Section 3)
//     [accounting]   C_i = S_i + p_i in exact Rational arithmetic,
//                    S_i >= r_i, makespan = max C_i; a task dispatched at
//                    its release instant (immediate dispatch) starts at
//                    max(r_i, C_u), C_u its machine's last narrated
//                    completion
//     [overlap]      no machine double-booking (touching allowed)
//     [busy-idle]    machine busy/idle transitions alternate and equal the
//                    merged task intervals
//
//   non-clairvoyant mode (AuditConfig::nc_mode; docs/scenarios.md)
//     [setup-accounting]  C_i = S_i + setup_i + p_i bitwise, with setup_i
//                    recomputed from the narrated dispatch order (charged
//                    exactly when the machine's previous processing set
//                    differs, first task free)
//
//   behavioural (inferred from RunInfo::algo, or forced via AuditConfig)
//     [fifo-order]   r_i <= r_j => S_i <= S_j on unrestricted instances
//                    (FIFO's queue discipline; EFT inherits it via Prop. 1)
//     [work-conservation]  no eligible machine idles while a task waits
//                    (FIFO-class and EFT-class engines; Mäcker et al.'s
//                    online no-unforced-idleness audit)
//
//   bound oracles (on_run_end; AuditConfig::bound_oracles)
//     [lb]           Fmax >= opt_lower_bound(I) (any algorithm; the
//                    certified bounds (3)/(4) of offline/lower_bounds)
//     [unit-opt]     Fmax >= unit OPT, with equality for FIFO/EFT on
//                    unrestricted unit instances (Theorem 2)
//     [th1-bound]    Fmax <= (3 - 2/m) * max(pmax, volume LB) for
//                    FIFO/EFT on unrestricted instances (Theorem 1 at
//                    proof level: the proof charges ALG against exactly
//                    these lower-bound expressions)
//     [prop1]        FIFO-vs-EFT cross-replay, bit-equal machines/starts
//                    (Proposition 1)
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "control/control.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "model/instance.hpp"
#include "model/schedule.hpp"
#include "obs/observer.hpp"
#include "sched/tiebreak.hpp"

namespace flowsched {

/// \brief Tuning knobs for the auditor. The default runs every check the
/// observed algorithm is known to satisfy (see algo inference above).
struct AuditConfig {
  /// Derive [fifo-order] / [work-conservation] / [prop1] applicability
  /// from RunInfo::algo ("FIFO", "EFT-Min", ...). When false, only
  /// force_work_conservation below enables a behavioural check.
  bool infer_from_algo = true;

  /// Force [work-conservation] regardless of the algorithm name.
  bool force_work_conservation = false;

  /// End-of-run bound oracles ([lb], [unit-opt], [th1-bound], [prop1]).
  /// The oracles rebuild the instance, so arming them keeps every task's
  /// record for the run, and they may run matchings / O(n^2) bounds (on
  /// instances of at most 400 tasks; the unit matching at most 160): they
  /// are intended for tests and fuzzing, not for production sweeps.
  bool bound_oracles = false;

  /// Absolute tolerance (>= 0) for comparisons that involve accumulated
  /// floating arithmetic (lower bounds, Th.1). Exact checks ([accounting],
  /// [prop1]) do not use it.
  double eps = 1e-9;

  /// Stop recording after this many violations (the run is already
  /// condemned; keeps a pathological run from flooding memory).
  int max_violations = 64;

  /// \brief Audit a fault-injection run (OnlineEngine::set_faults).
  ///
  /// Under faults the engine narrates only the successful attempt of each
  /// task (no machine busy/idle stream, checkpointed final segments may be
  /// shorter than p_i), so the fault-free contracts do not apply verbatim:
  /// this flag disables [accounting]'s C_i = S_i + p_i and immediate-start
  /// checks, [overlap], [busy-idle], the behavioural checks, the bound
  /// oracles, and the every-task-completes check. Their fault-aware
  /// replacements — [fault-downtime], [fault-eligibility],
  /// [fault-requeue]/[fault-backoff], [fault-accounting], [fault-overlap],
  /// [fault-lifecycle] — run in check_fault_run(), which validates the
  /// engine's FaultLog against the plan and the recovery policy after the
  /// run ends.
  bool fault_mode = false;

  /// \brief Audit a non-clairvoyant run (Clairvoyance::kNonClairvoyant).
  ///
  /// In nc mode a machine pays `nc_setup` before any task whose processing
  /// set differs from the previous task's on that machine, so
  /// C_i = S_i + setup_i + p_i. [accounting]'s exact completion check
  /// becomes the setup-aware [setup-accounting] (bitwise, with the setup
  /// recomputed from the narrated dispatch order), the occupancy checks
  /// ([overlap], [busy-idle]) use the narrated completion instead of
  /// S_i + p_i, and the behavioural checks and bound oracles — all proved
  /// for clairvoyant, setup-free schedules — are disabled (the fuzzer's
  /// [nc-*] oracles replace them; check/fuzz.hpp).
  bool nc_mode = false;
  /// Per-machine setup time charged in nc mode (exact dyadic-grid value).
  double nc_setup = 0.0;
};

/// \brief SchedObserver that validates runs online and via end-of-run
/// oracles. May observe several runs back to back; violations accumulate
/// across runs, each prefixed with "run#<index> <algo>:".
class InvariantAuditor final : public SchedObserver {
 public:
  /// \param config which checks to arm (see AuditConfig field docs).
  explicit InvariantAuditor(AuditConfig config = {});

  // SchedObserver hooks — the engine drives these; the buffered witnesses
  // and the end-of-run oracles fire from on_run_end.
  void on_run_begin(const RunInfo& info) override;
  void on_event(const ObsEvent& event) override;
  void on_run_end(double makespan) override;

  /// \return true when no check has failed in any observed run so far.
  bool ok() const { return violations_.empty(); }
  /// Violation lines in detection order, "run#<i> <algo>: [tag] ...".
  const std::vector<std::string>& violations() const { return violations_; }
  /// All violations joined with newlines ("" when ok()).
  std::string report() const;

  /// \brief Validates the last completed run's FaultLog against its plan
  /// and recovery policy (AuditConfig::fault_mode runs only).
  ///
  /// Call after on_run_end(), passing the same plan/policy the engine ran
  /// under, its fault_log() and the tasks it released (OnlineEngine::tasks();
  /// the auditor keeps no per-task record). Checks, all exact on the
  /// dyadic grid:
  ///
  ///   [fault-downtime]    no segment executes through a down interval of
  ///                       its machine; kills land exactly on the crash
  ///   [fault-eligibility] segments run on machines of M_i that are up at
  ///                       the segment start; parked attempts really had
  ///                       every eligible machine down
  ///   [fault-requeue]     retry instants equal RecoveryPolicy::retry_time
  ///   / [fault-backoff]   (recomputed, jitter included); park wake-ups
  ///                       equal the earliest eligible recovery
  ///   [fault-accounting]  completed tasks execute exactly p_i of work
  ///                       (final segment under restart policies; exact
  ///                       Rational segment sum under checkpoint), and the
  ///                       narrated completions agree with the log's
  ///                       (compared as an order-independent digest of
  ///                       task, machine, start and completion)
  ///   [fault-overlap]     per machine, segments never overlap
  ///   [fault-lifecycle]   every task settles as completed or dropped, and
  ///                       drops are justified (budget exhausted or no
  ///                       machine ever recovers) — never a silent loss
  void check_fault_run(const FaultPlan& plan, const RecoveryPolicy& policy,
                       const FaultLog& log, std::span<const Task> tasks);

  /// \brief Validates the ControlLog of an adaptive run (control/adaptive_sim)
  /// against the controller contract. Call after on_run_end(), passing the
  /// config and initial layout the run's controller was built with.
  ///
  ///   [control-determinism]     replaying the logged observations through a
  ///                             fresh ReplicationController reproduces every
  ///                             logged decision bitwise (decisions are pure
  ///                             functions of observation + config)
  ///   [control-movement-bound]  each epoch migrates at most max_move owners,
  ///                             migration steps are contiguous with exactly
  ///                             one migration in flight, and k moves by at
  ///                             most 1 per switch
  ///   [control-setup-accounting] every setup charge names an owner a logged
  ///                             decision really moved, is charged exactly
  ///                             once per migration, and equals setup_cost
  void check_control_run(const ControlLog& log, const ControlConfig& config,
                         int m, const LayoutSpec& initial);

 private:
  // A task between its released and completed events (with bound oracles
  // armed, every task keeps its record for the run).
  struct TaskRecord {
    double release = 0;
    double proc = 0;
    double weight = 1.0;
    double setup = 0;  // narrated nc setup charge (0 outside nc mode)
    ProcSet eligible;
    double start = 0;
    double completion = 0;
    int machine = -1;
    int phase = 0;           // 0 released, 1 dispatched, 2 started, 3 completed
    bool immediate = false;  // dispatched at its release instant
  };
  // A machine occupancy interval [start, end).
  struct Span {
    double start;
    double end;
  };
  // A completed task whose wait (release, start) still overlaps a machine's
  // open idle tail by more than eps: a later start on that machine may
  // close a gap inside the wait. `pos` is the machine's index in M_i.
  struct Waiter {
    int task;
    int pos;
    double release;
    double start;
  };
  // The first witness of a check found so far: the smallest (task, pos),
  // pos a machine's index in M_i. task < 0: none.
  struct Witness {
    int task = -1;
    int pos = 0;
    std::string what;
    void offer(int t, int p, const std::string& w);
  };
  struct Machine {
    double last_completion = 0;  // [accounting] immediate starts
    // [overlap] / [busy-idle]: completed intervals (start, narrated
    // completion) with the latest start seen, held until a later start
    // arrives so they are read in (start, completion) order.
    std::vector<Span> group;
    bool has_prev = false;
    Span prev{};
    std::vector<std::string> overlaps;  // emitted at run end
    bool burst_open = false;
    Span burst{};
    std::vector<Span> bursts;   // closed task bursts not yet matched
    std::vector<Span> periods;  // narrated busy periods not yet matched
    long long n_bursts = 0;
    long long n_periods = 0;
    std::string mismatch;  // first unequal (period, burst) pair
    bool narrated = false;
    bool last_busy = false;
    double last_edge = 0;
    // [work-conservation]: the frontier max(S + p) and the closed idle gaps
    // that a task still in flight could witness.
    double frontier = 0;
    std::vector<Span> gaps;
    std::vector<Waiter> waiters;
    // [setup-accounting]
    bool has_last_set = false;
    ProcSet last_set;
  };

  void violation(const std::string& check, const std::string& what);
  void on_task_event(const ObsEvent& e);
  void on_machine_event(const ObsEvent& e);
  void complete(int task, const TaskRecord& rec);
  void add_interval(int machine, Span iv);
  void add_work_interval(int machine, Span iv, double release);
  void search_gaps(int task, const TaskRecord& rec);
  void add_gap_witness(const Waiter& w, int machine, Span gap);
  void check_fifo_pair(int task);
  bool completed(int task) const;
  void flush_group(int machine);
  void close_burst(int machine);
  void close_period(int machine, Span period);
  void match_busy(int machine);
  void run_bound_oracles();

  AuditConfig config_;
  std::vector<std::string> violations_;
  int runs_ = 0;
  bool open_ = false;
  RunInfo info_;
  // Behavioural expectations derived from info_.algo at on_run_begin.
  bool expect_fifo_order_ = false;
  bool expect_work_conservation_ = false;
  bool eft_or_fifo_ = false;

  int released_ = 0;
  std::map<int, TaskRecord> in_flight_;
  std::map<int, TaskRecord>::node_type spare_;  // the last completed node
  std::vector<TaskRecord> retained_;  // bound oracles only
  std::vector<Machine> machines_;
  bool unrestricted_ = true;
  double last_release_ = 0;
  double max_completion_ = 0;
  // [fifo-order]: (start, release) of completed tasks whose successor has
  // not completed yet.
  std::map<int, std::pair<double, double>> fifo_starts_;
  Witness fifo_witness_;
  Witness gap_witness_;
  std::vector<std::string> setup_lines_;  // [setup-accounting], at run end
  // Fault mode: narrated completions for check_fault_run's agreement check.
  long long completions_ = 0;
  std::uint64_t completion_digest_ = 0;
};

/// \brief One-shot audit of a completed schedule: replays it through an
/// InvariantAuditor (obs replay semantics) and returns the violations.
/// `algo` seeds the behavioural-check inference exactly like a live run.
std::vector<std::string> audit_schedule(const Schedule& sched,
                                        const std::string& algo,
                                        AuditConfig config = {});

}  // namespace flowsched
