// InvariantAuditor: online validation of scheduling runs against the
// paper's machine-checkable theorems.
//
// The auditor is a SchedObserver (obs/observer.hpp): attach it to any
// engine — OnlineEngine, the FIFO simulators, the kvstore cluster
// simulator, or a replayed Schedule — alone or fanned out beside
// MetricsCollector / TraceRecorder through a MulticastObserver. It costs
// nothing when detached (the engines' usual null-pointer contract) and
// validates the run as the events stream in, then closes the books at
// on_run_end() with whole-schedule sweeps and the configured bound
// oracles. The sweeps bucket the completed tasks by machine once and sort
// each machine's intervals once, so closing the books costs O(n log n);
// the instance is rebuilt from the records only for the bound oracles.
//
// Invariant catalog (docs/testing.md lists the theorem behind each):
//
//   structural (always on)
//     [protocol]     begin/event/end bracketing, sequential task ids,
//                    non-decreasing releases, per-task event lifecycle
//     [eligibility]  dispatched machine is in M_i (processing-set
//                    feasibility, Section 3)
//     [accounting]   C_i = S_i + p_i in exact Rational arithmetic,
//                    S_i >= r_i, makespan = max C_i
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
  /// from RunInfo::algo ("FIFO", "EFT-Min", ...). When false, only the
  /// force_* flags below enable behavioural checks.
  bool infer_from_algo = true;

  /// Force behavioural checks regardless of the algorithm name.
  bool force_fifo_order = false;
  bool force_work_conservation = false;

  /// End-of-run bound oracles ([lb], [unit-opt], [th1-bound], [prop1]).
  /// The oracles rebuild the instance from the event stream and may run
  /// matchings / O(n^2) bounds, so they are intended for tests and fuzzing,
  /// not for production sweeps.
  bool bound_oracles = false;

  /// Oracle size gates: the O(n^2) volume bound and Th.1 check run only
  /// when n <= oracle_max_n; the unit-task matching oracle only when
  /// n <= unit_oracle_max_n.
  int oracle_max_n = 400;
  int unit_oracle_max_n = 160;

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
  /// this flag disables [accounting]'s C_i = S_i + p_i, [overlap],
  /// [busy-idle], the behavioural checks, the bound oracles, and the
  /// every-task-completes sweep. Their fault-aware replacements —
  /// [fault-downtime], [fault-eligibility], [fault-requeue]/[fault-backoff],
  /// [fault-accounting], [fault-overlap], [fault-lifecycle] — run in
  /// check_fault_run(), which validates the engine's FaultLog against the
  /// plan and the recovery policy after the run ends.
  bool fault_mode = false;

  /// \brief Audit a non-clairvoyant run (Clairvoyance::kNonClairvoyant).
  ///
  /// In nc mode a machine pays `nc_setup` before any task whose processing
  /// set differs from the previous task's on that machine, so
  /// C_i = S_i + setup_i + p_i. [accounting]'s exact completion check
  /// becomes the setup-aware [setup-accounting] (bitwise, with the setup
  /// recomputed from the narrated dispatch order at end of run), the
  /// occupancy sweeps ([overlap], [busy-idle]) use the narrated completion
  /// instead of S_i + p_i, and the behavioural checks and bound oracles —
  /// all proved for clairvoyant, setup-free schedules — are disabled (the
  /// fuzzer's [nc-*] oracles replace them; check/fuzz.hpp).
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

  // SchedObserver hooks — the engine drives these; the end-of-run oracles
  // fire from on_run_end.
  void on_run_begin(const RunInfo& info) override;
  void on_event(const ObsEvent& event) override;
  void on_run_end(double makespan) override;

  /// \return true when no check has failed in any observed run so far.
  bool ok() const { return violations_.empty(); }
  /// Violation lines in detection order, "run#<i> <algo>: [tag] ...".
  const std::vector<std::string>& violations() const { return violations_; }
  /// Completed runs observed so far.
  int runs() const { return runs_; }
  /// All violations joined with newlines ("" when ok()).
  std::string report() const;
  /// Throws std::runtime_error carrying report() unless ok().
  void throw_if_violated() const;

  /// Weighted aggregates of the last completed run, recomputed from the
  /// event stream with the shared weighted_flow_term / exact-sum recipe —
  /// the [weighted-accounting] differential compares these bitwise against
  /// MetricsCollector and Schedule. Zero before the first on_run_end().
  /// Computed on first read (or when the next run begins), so runs nobody
  /// asks about never pay for the exact sum.
  double last_max_weighted_flow() const {
    settle_weighted();
    return last_fmax_w_;
  }
  double last_total_weighted_flow() const {
    settle_weighted();
    return last_total_flow_w_;
  }

  /// \brief Validates the last completed run's FaultLog against its plan
  /// and recovery policy (AuditConfig::fault_mode runs only).
  ///
  /// Call after on_run_end(), passing the same plan/policy the engine ran
  /// under and its fault_log(). Checks, all exact on the dyadic grid:
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
  ///                       event stream agrees with the log
  ///   [fault-overlap]     per machine, segments never overlap
  ///   [fault-lifecycle]   every task settles as completed or dropped, and
  ///                       drops are justified (budget exhausted or no
  ///                       machine ever recovers) — never a silent loss
  void check_fault_run(const FaultPlan& plan, const RecoveryPolicy& policy,
                       const FaultLog& log);

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
  struct TaskRecord {
    double release = 0;
    double proc = 0;
    double weight = 1.0;
    double setup = 0;  // narrated nc setup charge (0 outside nc mode)
    ProcSet eligible;
    int machine = -1;
    double dispatch_time = 0;
    double start = 0;
    double completion = 0;
    int phase = 0;  // 0 released, 1 dispatched, 2 started, 3 completed
  };
  struct Transition {
    double time;
    bool busy;
  };
  // A completed task's occupancy of its machine. [overlap] and [busy-idle]
  // use the narrated completion; [work-conservation] uses start + proc.
  struct Span {
    double start;
    double completion;
    double end;  // start + proc
  };
  // Completed tasks bucketed by machine: machine j's spans are
  // spans[offset[j], offset[j+1]), sorted by (start, completion).
  struct MachineSpans {
    std::vector<std::size_t> offset;
    std::vector<Span> spans;
    std::size_t machines() const { return offset.size() - 1; }
    std::span<const Span> of(std::size_t j) const {
      return {spans.data() + offset[j], spans.data() + offset[j + 1]};
    }
  };

  void violation(const std::string& check, const std::string& what);
  MachineSpans bucket_by_machine() const;
  void check_overlap(const MachineSpans& by_machine);
  void check_machine_events(const MachineSpans& by_machine, double makespan);
  void check_fifo_order();
  void check_work_conservation(const MachineSpans& by_machine);
  void check_setup_accounting();
  void run_bound_oracles();
  void settle_weighted() const;

  AuditConfig config_;
  std::vector<std::string> violations_;
  int runs_ = 0;
  bool open_ = false;
  RunInfo info_;
  // Behavioural expectations derived from info_.algo at on_run_begin.
  bool expect_fifo_order_ = false;
  bool expect_work_conservation_ = false;
  bool eft_or_fifo_ = false;

  std::vector<TaskRecord> tasks_;
  std::vector<std::vector<Transition>> transitions_;  // per machine
  bool unrestricted_ = true;
  double last_release_ = 0;
  // Set by on_run_end; settle_weighted() then folds tasks_ into the two
  // aggregates before anything reads them or the next run clears tasks_.
  mutable bool weighted_pending_ = false;
  mutable double last_fmax_w_ = 0;
  mutable double last_total_flow_w_ = 0;
};

/// \brief One-shot audit of a completed schedule: replays it through an
/// InvariantAuditor (obs replay semantics) and returns the violations.
/// `algo` seeds the behavioural-check inference exactly like a live run.
std::vector<std::string> audit_schedule(const Schedule& sched,
                                        const std::string& algo,
                                        AuditConfig config = {});

}  // namespace flowsched
