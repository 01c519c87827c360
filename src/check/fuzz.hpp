// Differential fuzzer for the scheduling engines.
//
// Each fuzz run draws a random structured instance (check/gen.hpp) and
// pushes it through every applicable policy — the immediate-dispatch
// dispatchers, FIFO-eligible, and plain FIFO when the instance is
// unrestricted — with an InvariantAuditor attached and its bound oracles
// armed. On top of the auditor's per-run checks, the harness cross-checks
// each schedule differentially against the offline oracles:
//
//   [diff-bruteforce]  Fmax >= branch-and-bound OPT (small n)
//   [diff-th1-exact]   Fmax <= (3 - 2/m) * OPT for FIFO/EFT on
//                      unrestricted instances (Theorem 1 against the exact
//                      denominator, not a lower bound — sound and tight)
//   [diff-preemptive]  Fmax >= preemptive OPT (relaxation bound, Section 2)
//   [diff-bounds]      the bound landscape (src/bounds, docs/bounds.md):
//                      every schedule obeys the universal work ceiling
//                      Fmax <= W + pmax, and FIFO/EFT on disjoint families
//                      obeys the Theorem 6 / Corollary 1 ceiling
//                      Fmax <= (3 - 2/kmax) * OPT against the exact
//                      optimum (generalizing [diff-th1-exact]; an
//                      unrestricted instance is one group with kmax = m)
//   [diff-lp]          max-flow Hall-ratio max load == simplex tableau
//                      optimum (lp/maxload.hpp's two independent solvers),
//                      run on a fresh random replica system every lp_every
//                      runs; the same cadence also scores a random crashed
//                      ring or block layout with max_load_windows against
//                      both
//   [diff-streaming]   the bare StreamingEngine core (sched/streaming.hpp)
//                      commits the bit-identical (machine, start) sequence
//                      as OnlineEngine's retention layer for every
//                      dispatcher policy, with the windowed StreamAuditor
//                      (check/stream_audit.hpp) attached — its [stream-*]
//                      checks ride along — run every stream_every runs
//
// Every fault_every-th run additionally pushes the same instance through
// the fault-injection battery: a seeded FaultPlan (fault/plan.hpp) plus a
// cycling RecoveryPolicy, every dispatcher policy executed by
// run_dispatcher_faulty under the fault-mode auditor, then
// InvariantAuditor::check_fault_run validates the attempt log against the
// plan ([fault-*] checks; see check/audit.hpp). Fault findings shrink like
// any other — the plan is a pure function of (plan seed, candidate m), so
// the shrinker regenerates it per candidate — and their reproducers embed
// the availability trace in the fault-case format (fault/plan_io.hpp).
//
// Every nc_every-th run additionally pushes the instance through the
// non-clairvoyant battery (docs/scenarios.md): every dispatcher policy
// wrapped in NcDispatcher (sched/nonclairvoyant.hpp) runs under the
// nc-mode auditor with a drawn dyadic setup time ([setup-accounting] rides
// along), then
//
//   [nc-no-peek]     counterfactual replay — the hidden p_i are permuted
//                    among the tasks completing after the last release (and
//                    integer-padded so every censored observable is
//                    unchanged); the machine choices must not move
//   [nc-lb]          nc Fmax >= pmax, and >= the clairvoyant optimum when
//                    the bruteforce oracle ran
//   [nc-ceiling]     nc Fmax <= W + (n+1)*setup + pmax
//   [diff-nc]        at setup 0, clairvoyance-oblivious policies (JSQ,
//                    RoundRobin, RandomEligible) are bit-equal to the
//                    clairvoyant engine
//   [nc-clair-lb]    at setup > 0, state-oblivious policies dominate their
//                    clairvoyant Fmax
//
// Every control_every-th run additionally pushes the instance through the
// adaptive-replication control battery (control/adaptive_sim.hpp): a
// ControlCase is derived from (instance, case seed) — initial layout,
// controller config, per-request keys, and an optional fault plan — and
// served by run_adaptive under the auditor, then
// InvariantAuditor::check_control_run validates the ControlLog
// ([control-determinism], [control-movement-bound],
// [control-setup-accounting]; see check/audit.hpp) and
//
//   [diff-control]    the controller-off run (run_adaptive with
//                     enabled = false) equals the plain static path
//                     (run_static) bitwise — flows, counters, makespan
//
// Control findings carry the case seed in a "control <cseed>" reproducer
// directive: the scenario regenerates as a pure function of
// (instance, cseed), so the shrinker minimizes the request stream like any
// instance and replay_control_case re-derives the rest.
//
// And every weighted_every-th run re-draws the instance with random dyadic
// weights (check/gen.hpp) and pushes it through the weighted battery:
//
//   [weighted-accounting] Schedule, MetricsCollector, and the auditor
//                    aggregate w_i * F_i independently and must agree
//                    bitwise (shared weighted_flow_term / exact-sum recipe)
//   [diff-weighted]  the unit-weight copy reproduces the schedule
//                    assignment-for-assignment and every unweighted report
//                    field bit-for-bit
//   [weighted-ceiling] Fmax^w <= wmax * (W + pmax)
//
// A failing check yields a FuzzFinding; the delta-debugging shrinker
// (check/shrink.hpp) minimizes the instance under "the same check still
// fails for the same policy", and the minimized instance is emitted as a
// self-contained reproducer file (io/instance_io format plus a comment
// header) into FuzzConfig::corpus_dir.
//
// Determinism: run r derives its RNG stream from
// replicate_seed(experiment_id("flowsched_fuzz"), cell_id({seed}), r),
// results are collected in run order, and randomized tie-breaks use fixed
// seeds — so the report (and any reproducer) is byte-identical for a given
// --seed at any --threads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "check/gen.hpp"
#include "fault/plan.hpp"
#include "fault/plan_io.hpp"
#include "model/instance.hpp"
#include "sched/dispatchers.hpp"

namespace flowsched {

struct FuzzConfig {
  std::uint64_t seed = 1;
  int runs = 64;
  /// <= 0 means hardware concurrency (runner/experiment.hpp semantics).
  int threads = 1;
  /// Structures to cycle through (run r uses structures[r % size]).
  /// Empty means all of kAllFuzzStructures.
  std::vector<FuzzStructure> structures;
  StructuredInstanceOptions sizes;

  /// Arm the auditor's end-of-run oracles ([lb], [unit-opt], [th1-bound],
  /// [prop1]) on every audited run.
  bool bound_oracles = true;
  /// Run the offline-oracle differential checks ([diff-*] above).
  bool differential = true;
  /// Run the Hall-vs-simplex max-load differential and the closed-form window
  /// case every `lp_every` runs (0 disables both).
  int lp_every = 16;
  /// Run the batch-vs-streaming engine differential ([diff-streaming],
  /// with the [stream-*] windowed audit attached) every `stream_every`
  /// runs (0 disables it). Cheap — two engine replays per policy — so it
  /// defaults to every run.
  int stream_every = 1;
  /// Run the bound-landscape differential ([diff-bounds]: work ceiling on
  /// every policy, Cor. 1 vs the exact optimum on disjoint families) with
  /// the other differential checks. Pure arithmetic over an
  /// already-computed schedule, so it defaults to every run.
  bool bounds_diff = true;
  /// Run the sharded-engine differential ([shard-equiv] /
  /// [shard-valid]) every `shard_every` runs (0 disables it): the sharded
  /// engine at S in {2, 4} — small epochs and a tiny steal threshold to
  /// force multi-epoch routing and steals — against the single-queue
  /// engine. When every M_i is shard-local the assignments must be
  /// bit-equal; in every case the merged schedule must pass the structural
  /// audit. Deterministic policies only (per-shard RNG streams legitimately
  /// diverge for randomized ones).
  int shard_every = 1;

  /// Replace EFT-Min with FaultyEftDispatcher (still reporting the
  /// "EFT-Min" name) — the harness's own smoke test: the injected bug must
  /// be caught and shrunk. See FaultyEftDispatcher below.
  bool inject_bug = false;

  /// Run the fault-injection battery every `fault_every` runs (0 disables
  /// it): a FaultPlan seeded from the run's RNG stream, a recovery policy
  /// cycling through immediate / backoff / checkpoint, and every dispatcher
  /// policy (fault_fuzz_policies()) audited in fault mode plus
  /// check_fault_run.
  int fault_every = 4;
  /// Crash/repair process the battery draws its plans from.
  FaultModelConfig fault_model;
  /// Enable OnlineEngine::set_unsafe_ignore_downtime on the battery's
  /// EFT-Min run — the fault harness's own planted bug (dispatch on the
  /// undegraded set, execute through down intervals); [fault-downtime] /
  /// [fault-eligibility] must catch it and the shrinker must minimize it.
  bool inject_fault_bug = false;

  /// Run the non-clairvoyant battery every `nc_every` runs (0 disables it):
  /// the [nc-*] / [diff-nc] checks listed above, with the per-run setup
  /// time drawn from {1/8, 2/8, 3/8, 4/8}. The setup-free [diff-nc]
  /// clairvoyant differential runs inside the battery regardless of the
  /// drawn setup, so every armed run exercises it.
  int nc_every = 1;
  /// Arm the engine core's set_unsafe_nc_leak on the nc battery — the
  /// planted peeking bug (true frontiers, loads, and p_i handed to a
  /// censored policy). [nc-no-peek] must catch it on frontier-reading
  /// policies and the shrinker must minimize it.
  bool inject_nc_bug = false;
  /// Run the weighted battery every `weighted_every` runs (0 disables it):
  /// the [weighted-*] / [diff-weighted] checks listed above on a
  /// randomly-weighted copy of the run's instance.
  int weighted_every = 1;
  /// Run the adaptive-replication control battery every `control_every`
  /// runs (0 disables it): the [control-*] audit replay and the
  /// [diff-control] controller-off-vs-static differential listed above, on
  /// a ControlCase derived from the run's instance and a drawn case seed.
  int control_every = 1;
  /// Arm ReplicationController::set_unsafe_flap on the control battery —
  /// the planted control bug (the layout flips every epoch and the whole
  /// key space migrates at once: no hysteresis, no cooldown, no movement
  /// bound). [control-determinism] / [control-movement-bound] must catch it
  /// and the shrinker must minimize it.
  bool inject_control_bug = false;

  bool shrink = true;
  int shrink_max_calls = 4000;
  /// Directory for reproducer files ("" = keep findings in memory only).
  std::string corpus_dir;
};

struct FuzzFinding {
  int run = 0;
  FuzzStructure structure = FuzzStructure::kInclusive;
  std::string policy;  ///< Policy name, or "lp" for [diff-lp] findings.
  std::string check;   ///< First violation line, "[tag] ..." format.
  int shrunk_n = 0;    ///< Tasks in the reproducer (0 for [diff-lp]).
  std::string instance_text;  ///< Reproducer body ("" for [diff-lp]).
  std::string path;    ///< Corpus file written, "" when none.
};

struct FuzzReport {
  int runs = 0;
  int schedules = 0;  ///< Policy runs audited (fault and stream runs included).
  int lp_checks = 0;
  int fault_checks = 0;  ///< Fault batteries executed.
  int stream_checks = 0;  ///< Batch-vs-streaming differentials executed.
  int bounds_checks = 0;  ///< Runs with the [diff-bounds] landscape armed.
  int shard_checks = 0;   ///< Sharded-vs-single-queue differentials executed.
  int nc_checks = 0;      ///< Non-clairvoyant batteries executed.
  int weighted_checks = 0;  ///< Weighted batteries executed.
  int control_checks = 0;   ///< Adaptive-control batteries executed.
  std::vector<FuzzFinding> findings;  ///< Run order, then policy order.

  bool ok() const { return findings.empty(); }
  /// Deterministic multi-line report (stable across thread counts).
  std::string summary() const;
};

/// Runs the fuzz campaign described by `config`.
FuzzReport run_fuzz(const FuzzConfig& config);

/// \brief The harness's planted bug: EFT whose idleness test uses an
/// off-by-one finished-task cursor.
///
/// It keeps its own per-machine finish log with a finished-prefix cursor,
/// but computes queue depth as (assigned - finished - 1): a machine with exactly one
/// unfinished task reports depth 0 and is treated as idle, so the
/// dispatcher happily stacks a second task on it while a genuinely idle
/// machine sits empty. It reports the name "EFT-Min", so the auditor holds
/// it to EFT's contract — [work-conservation] catches it structurally and
/// [prop1]/[unit-opt] catch it against the oracles. Used by
/// FuzzConfig::inject_bug and the fault-injection ctest.
class FaultyEftDispatcher final : public Dispatcher {
 public:
  void reset(int m) override;
  int dispatch(const Task& t, const MachineState& state) override;
  std::string name() const override { return "EFT-Min"; }

 private:
  std::vector<std::vector<double>> finish_;  // per machine, dispatch order
  std::vector<std::size_t> cursor_;          // finished prefix per machine
};

/// Policy names run_fuzz exercises on every instance (FIFO is added when
/// the instance is unrestricted). Exposed for the replay tool and tests.
const std::vector<std::string>& fuzz_policies();

/// Policy names the fault battery exercises: fuzz_policies() minus
/// FIFO-eligible (the fault path drives a Dispatcher; the FIFO simulators
/// have no requeue semantics).
const std::vector<std::string>& fault_fuzz_policies();

/// \brief Re-checks one fault case (instance + plan + recovery) through the
/// fault battery: every fault_fuzz_policies() policy under the fault-mode
/// auditor and check_fault_run. Lines are prefixed "policy: [tag] ...".
std::vector<std::string> replay_fault_case(const FaultCase& fc);

/// \brief Re-checks one instance through the non-clairvoyant battery at the
/// given setup time: every fault_fuzz_policies() policy through check_nc's
/// full check set. Lines are prefixed "policy: ...". Reproducer files
/// carrying an "ncsetup <v>" directive route here from replay_corpus_file.
std::vector<std::string> replay_nc_case(const Instance& inst, double setup);

/// \brief Re-checks one instance through the adaptive-control battery: the
/// ControlCase regenerated from (inst, cseed), every control policy through
/// check_control_run and the [diff-control] differential. Lines are
/// prefixed "policy: ...". Reproducer files carrying a "control <cseed>"
/// directive route here from replay_corpus_file.
std::vector<std::string> replay_control_case(const Instance& inst,
                                             std::uint64_t cseed);

/// \brief Re-checks one instance through the full policy battery.
///
/// Returns every violation found, each line prefixed "policy: [tag] ...".
/// Used by `flowsched_fuzz replay` and the corpus_replay ctest, so a
/// committed reproducer keeps failing loudly until the bug it witnesses is
/// fixed — and stays green afterwards.
std::vector<std::string> replay_corpus_instance(const Instance& inst,
                                                bool bound_oracles = true,
                                                bool differential = true);

/// Loads the file at `path` and replays it. Files carrying fault
/// directives (fault/plan_io.hpp) route to replay_fault_case; plain
/// instance files replay through replay_corpus_instance.
std::vector<std::string> replay_corpus_file(const std::string& path,
                                            bool bound_oracles = true,
                                            bool differential = true);

}  // namespace flowsched
