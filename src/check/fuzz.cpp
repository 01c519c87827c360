#include "check/fuzz.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>

#include "check/shrink.hpp"
#include "control/adaptive_sim.hpp"
#include "io/instance_io.hpp"
#include "lp/maxload.hpp"
#include "model/structure.hpp"
#include "offline/bruteforce.hpp"
#include "offline/preemptive_optimal.hpp"
#include "runner/experiment.hpp"
#include "runner/thread_pool.hpp"
#include "check/audit.hpp"
#include "obs/metrics.hpp"
#include "sched/engine.hpp"
#include "sched/fifo.hpp"
#include "sched/nonclairvoyant.hpp"
#include "sched/sharded/sharded.hpp"
#include "sched/streaming.hpp"
#include "util/rng.hpp"

namespace flowsched {
namespace {

// Fixed seed for the randomized tie-breaks/policies: the schedule is then a
// pure function of the instance, so a shrunk reproducer replays identically
// under `flowsched_fuzz replay` with no extra state to carry. The randomized
// dispatchers additionally run in counter-RNG mode (per-task streams keyed
// on the global task id, sched/tiebreak.hpp), which makes every draw a pure
// function of (kPolicySeed, task id) — independent of how tasks are split
// across shard lanes — so the sharded differential's bit-equality extends
// to them.
constexpr std::uint64_t kPolicySeed = 0x5eedULL;

// Size gates for the exponential / polynomial oracles. Branch-and-bound is
// fast at these sizes thanks to its frontier-ordering heuristic; the
// preemptive bound is a bisection over max-flows.
constexpr int kBruteforceMaxN = 9;
constexpr int kPreemptiveMaxN = 14;

// Recovery policies the fault battery cycles through, one per battery run.
constexpr RecoveryKind kRecoveryCycle[] = {
    RecoveryKind::kImmediate, RecoveryKind::kBackoff, RecoveryKind::kCheckpoint};

std::string fmt(double x) {
  std::ostringstream os;
  os.precision(17);
  os << x;
  return os.str();
}

std::unique_ptr<Dispatcher> make_dispatcher(const std::string& policy,
                                            bool inject_bug) {
  if (policy == "EFT-Min") {
    if (inject_bug) return std::make_unique<FaultyEftDispatcher>();
    return std::make_unique<EftDispatcher>(TieBreakKind::kMin);
  }
  if (policy == "EFT-Max")
    return std::make_unique<EftDispatcher>(TieBreakKind::kMax);
  if (policy == "EFT-Rand")
    return std::make_unique<EftDispatcher>(TieBreakKind::kRand, kPolicySeed,
                                           /*counter_rng=*/true);
  if (policy == "LeastLoaded-Min")
    return std::make_unique<LeastLoadedDispatcher>(TieBreakKind::kMin);
  if (policy == "JSQ-Min")
    return std::make_unique<JsqDispatcher>(TieBreakKind::kMin);
  if (policy == "RoundRobin") return std::make_unique<RoundRobinDispatcher>();
  if (policy == "RandomEligible")
    return std::make_unique<RandomEligibleDispatcher>(kPolicySeed,
                                                      /*counter_rng=*/true);
  if (policy == "Pow2")
    return std::make_unique<PowerOfDChoicesDispatcher>(2, kPolicySeed,
                                                       /*counter_rng=*/true);
  throw std::invalid_argument("unknown fuzz policy: " + policy);
}

std::vector<std::string> policies_for(const Instance& inst) {
  std::vector<std::string> out = fuzz_policies();
  if (inst.unrestricted_sets()) out.push_back("FIFO");
  return out;
}

// Offline reference values shared by every policy run on one instance.
// A value < 0 means "not computed" (instance too large for that oracle).
struct Oracles {
  double bruteforce = -1.0;
  double preemptive = -1.0;
};

Oracles compute_oracles(const Instance& inst, bool differential) {
  Oracles o;
  if (!differential) return o;
  if (inst.n() <= kBruteforceMaxN)
    o.bruteforce = brute_force_opt_fmax(inst, kBruteforceMaxN);
  if (inst.n() <= kPreemptiveMaxN)
    o.preemptive = preemptive_optimal_fmax(inst);
  return o;
}

// The two oracles checked against each other: the preemptive relaxation can
// never be worse than the exact non-preemptive optimum.
std::optional<std::string> oracle_cross_check(const Oracles& o) {
  if (o.bruteforce >= 0 && o.preemptive >= 0 &&
      o.preemptive > o.bruteforce + 1e-4) {
    return "[diff-oracle] preemptive OPT " + fmt(o.preemptive) +
           " exceeds bruteforce OPT " + fmt(o.bruteforce);
  }
  return std::nullopt;
}

struct CheckOpts {
  bool bound_oracles = true;
  bool differential = true;
  bool inject_bug = false;
  bool bounds_diff = true;
};

// Runs one policy on one instance under the auditor and the differential
// oracles; returns every violation. The core shared by the fuzz loop, the
// shrink predicate, and corpus replay.
std::vector<std::string> check_policy(const Instance& inst,
                                      const std::string& policy,
                                      const CheckOpts& opts,
                                      const Oracles& oracles) {
  AuditConfig acfg;
  acfg.bound_oracles = opts.bound_oracles;
  InvariantAuditor auditor(acfg);

  Schedule sched = [&] {
    if (policy == "FIFO")
      return fifo_schedule(inst, TieBreakKind::kMin, 0, &auditor);
    if (policy == "FIFO-eligible")
      return fifo_eligible_schedule(inst, TieBreakKind::kMin, 0, &auditor);
    auto dispatcher = make_dispatcher(policy, opts.inject_bug);
    return run_dispatcher(inst, *dispatcher, auditor);
  }();

  std::vector<std::string> out = auditor.violations();
  if (!opts.differential) return out;

  const double fmax = sched.max_flow();
  if (oracles.bruteforce >= 0 && fmax < oracles.bruteforce - 1e-6) {
    out.push_back(policy + ": [diff-bruteforce] Fmax " + fmt(fmax) +
                  " beats the exact optimum " + fmt(oracles.bruteforce));
  }
  if (oracles.preemptive >= 0 && fmax < oracles.preemptive - 1e-4) {
    out.push_back(policy + ": [diff-preemptive] Fmax " + fmt(fmax) +
                  " beats the preemptive relaxation " + fmt(oracles.preemptive));
  }
  // Theorem 1 against the *exact* optimum: sound (unlike a lower-bound
  // denominator, which would be stricter than the theorem) and as tight as
  // the theorem itself. Applies to FIFO and the EFT variants on
  // unrestricted instances.
  const bool eft_like = policy == "FIFO" || policy.rfind("EFT-", 0) == 0;
  if (oracles.bruteforce > 0 && eft_like && inst.unrestricted_sets()) {
    const double ratio = 3.0 - 2.0 / static_cast<double>(inst.m());
    if (fmax > ratio * oracles.bruteforce + 1e-6) {
      out.push_back(policy + ": [diff-th1-exact] Fmax " + fmt(fmax) +
                    " > (3 - 2/m) * OPT = " + fmt(ratio * oracles.bruteforce));
    }
  }
  // Bound-landscape differential (src/bounds semantics, docs/bounds.md).
  // Only sound checks run here — an upper-bound theorem may be checked
  // against the exact optimum or a ceiling that dominates it, never against
  // a lower bound (which would be stricter than the theorem):
  //   (a) universal work ceiling — releases are non-decreasing ([protocol]),
  //       so an immediate-dispatch schedule has Fmax <= W and a FIFO-family
  //       schedule Fmax <= W + pmax (a waiting task's eligible machines are
  //       all busy, and one machine carries at most W of work);
  //   (b) Theorem 6 / Corollary 1 against the exact optimum on disjoint
  //       families: EFT (and the FIFO simulators, group-wise via Prop. 1)
  //       obeys Fmax <= (3 - 2/kmax) * OPT with kmax the largest group
  //       size. Subsumes [diff-th1-exact] (an unrestricted instance is one
  //       group with kmax = m); both stay on so either can bisect a
  //       regression.
  if (opts.bounds_diff) {
    double work = 0.0;
    double pmax = 0.0;
    for (const Task& t : inst.tasks()) {
      work += t.proc;
      pmax = std::max(pmax, t.proc);
    }
    if (fmax > work + pmax + 1e-6) {
      out.push_back(policy + ": [diff-bounds] Fmax " + fmt(fmax) +
                    " exceeds the work ceiling W + pmax = " + fmt(work + pmax));
    }
    const bool fifo_family = eft_like || policy == "FIFO-eligible";
    if (oracles.bruteforce > 0 && fifo_family) {
      std::vector<ProcSet> sets;
      sets.reserve(static_cast<std::size_t>(inst.n()));
      for (const Task& t : inst.tasks()) sets.push_back(t.eligible);
      if (is_disjoint_family(sets)) {
        int kmax = 1;
        for (const ProcSet& s : sets) {
          kmax = std::max(kmax, static_cast<int>(s.machines().size()));
        }
        const double ceiling =
            (3.0 - 2.0 / static_cast<double>(kmax)) * oracles.bruteforce;
        if (fmax > ceiling + 1e-6) {
          out.push_back(policy + ": [diff-bounds] Fmax " + fmt(fmax) +
                        " > (3 - 2/kmax) * OPT = " + fmt(ceiling) +
                        " on a disjoint family (Cor. 1)");
        }
      }
    }
  }
  return out;
}

// Runs one policy on one instance under a fault plan: run_dispatcher_faulty
// with the fault-mode auditor attached, then check_fault_run validates the
// attempt log against the plan and the recovery policy. Shared by the fuzz
// loop, the fault shrink predicate, and fault-case replay.
std::vector<std::string> check_fault_policy(const Instance& inst,
                                            const FaultPlan& plan,
                                            const RecoveryPolicy& recovery,
                                            const std::string& policy,
                                            bool inject_fault_bug) {
  AuditConfig acfg;
  acfg.fault_mode = true;
  InvariantAuditor auditor(acfg);
  auto dispatcher = make_dispatcher(policy, /*inject_bug=*/false);
  const bool buggy = inject_fault_bug && policy == "EFT-Min";
  const OnlineEngine engine = run_dispatcher_faulty(
      inst, *dispatcher, plan, recovery, &auditor, RunTag{}, buggy);
  auditor.check_fault_run(plan, recovery, engine.fault_log(), engine.tasks());
  return auditor.violations();
}

// Batch-vs-streaming differential: the same instance through OnlineEngine
// and StreamingEngine (fresh, identically seeded dispatchers) must commit
// the bit-identical (machine, start) sequence, and the InvariantAuditor
// attached to the streaming run (which holds no per-task record) must come
// back clean. Shared by the fuzz loop, the shrink predicate, and corpus
// replay.
std::vector<std::string> check_streaming(const Instance& inst,
                                         const std::string& policy) {
  std::vector<std::string> out;
  auto batch_dispatcher = make_dispatcher(policy, /*inject_bug=*/false);
  OnlineEngine batch(inst.m(), *batch_dispatcher);
  auto stream_dispatcher = make_dispatcher(policy, /*inject_bug=*/false);
  StreamingEngine stream(inst.m(), *stream_dispatcher);
  InvariantAuditor auditor;
  auditor.on_run_begin(RunInfo{inst.m(), stream_dispatcher->name(), {}});
  stream.set_observer(&auditor);
  for (int i = 0; i < inst.n(); ++i) {
    const Task& task = inst.task(i);
    const Assignment a = batch.release(task);
    const Assignment s = stream.release(task);
    if (s.machine != a.machine || s.start != a.start) {
      out.push_back(policy + ": [diff-streaming] task " + std::to_string(i) +
                    " diverges: batch (machine " + std::to_string(a.machine) +
                    ", start " + fmt(a.start) + ") vs stream (machine " +
                    std::to_string(s.machine) + ", start " + fmt(s.start) +
                    ")");
      break;  // every later task inherits the divergence; one line suffices
    }
  }
  stream.drain();
  stream.finish_observation();
  double makespan = 0;
  for (double c : stream.completions()) makespan = std::max(makespan, c);
  auditor.on_run_end(makespan);
  out.insert(out.end(), auditor.violations().begin(),
             auditor.violations().end());
  return out;
}

// Policies whose sharded run must be BIT-equal to the single-queue engine
// on shard-local instances. The deterministic dispatchers qualify outright;
// the randomized ones (EFT-Rand, RandomEligible, Pow2) qualify because
// make_dispatcher builds them in counter-RNG mode — every draw is keyed on
// the global task id the lanes forward, not on a per-shard stream position
// — so [shard-equiv] asserts that the randomized policies take the
// equivalence path rather than falling back to the structural audit alone.
const std::vector<std::string>& shard_equiv_policies() {
  static const std::vector<std::string> kPolicies = {
      "EFT-Min",    "EFT-Max",        "LeastLoaded-Min", "JSQ-Min",
      "RoundRobin", "EFT-Rand",       "RandomEligible",  "Pow2"};
  return kPolicies;
}

// Sharded-vs-single-queue differential: ShardedEngine at S in {2, 4} with
// deliberately tiny epochs and steal threshold (forcing multi-epoch routing
// and the deterministic steal path) against OnlineEngine. On instances
// where every M_i is shard-local the assignment sequences must be bit-equal
// ([shard-equiv] — the structure-theory guarantee the sharded engine rests
// on); on EVERY instance the merged schedule must pass the structural audit
// ([shard-valid], behavioural inference disabled via the "Sharded(...)"
// name: boundary tasks dispatch on restricted sets, so single-queue
// work-conservation does not apply). Shared by the fuzz loop, the shrink
// predicate, and corpus replay.
std::vector<std::string> check_sharded(const Instance& inst,
                                       const std::string& policy) {
  std::vector<std::string> out;
  if (inst.m() < 2) return out;
  auto batch_dispatcher = make_dispatcher(policy, /*inject_bug=*/false);
  OnlineEngine batch(inst.m(), *batch_dispatcher);
  std::vector<Assignment> reference;
  reference.reserve(static_cast<std::size_t>(inst.n()));
  for (int i = 0; i < inst.n(); ++i) {
    reference.push_back(batch.release(inst.task(i)));
  }
  const auto factory = [&policy](int) {
    return make_dispatcher(policy, /*inject_bug=*/false);
  };
  for (int S : {2, 4}) {
    if (S > inst.m()) break;
    ShardedEngine::Options opts;
    opts.shards = S;
    opts.shard_workers = 1;
    opts.epoch_tasks = 7;
    opts.steal_threshold = 2;
    const ShardMap map = ShardMap::build(inst.m(), S);
    bool all_local = true;
    for (const Task& t : inst.tasks()) {
      if (t.eligible.empty() || !map.shard_local(t.eligible)) {
        all_local = false;
        break;
      }
    }
    const std::vector<Assignment> sharded = run_sharded(inst, factory, opts);
    if (all_local) {
      for (int i = 0; i < inst.n(); ++i) {
        const Assignment& a = reference[static_cast<std::size_t>(i)];
        const Assignment& s = sharded[static_cast<std::size_t>(i)];
        if (s.machine != a.machine || s.start != a.start) {
          out.push_back(policy + ": [shard-equiv] S=" + std::to_string(S) +
                        " task " + std::to_string(i) +
                        " diverges on a shard-local instance: single-queue "
                        "(machine " + std::to_string(a.machine) + ", start " +
                        fmt(a.start) + ") vs sharded (machine " +
                        std::to_string(s.machine) + ", start " + fmt(s.start) +
                        ")");
          break;  // later tasks inherit the divergence
        }
      }
    }
    Schedule sched(inst);
    for (int i = 0; i < inst.n(); ++i) {
      const Assignment& s = sharded[static_cast<std::size_t>(i)];
      sched.assign(i, s.machine, s.start);
    }
    for (const std::string& v :
         audit_schedule(sched, "Sharded(" + policy + ")")) {
      out.push_back(policy + ": [shard-valid] S=" + std::to_string(S) + " " +
                    v);
    }
  }
  return out;
}

// Policies whose dispatch decisions never read the fields censoring
// touches: they consult queue depths, a round-robin cursor, or per-task RNG
// draws — never the completion frontier, the load vector, or p_i. At
// setup = 0 the clairvoyant engine is therefore a valid bit-equal reference
// for their nc run ([diff-nc]).
bool clairvoyance_oblivious(const std::string& policy) {
  return policy == "JSQ-Min" || policy == "RoundRobin" ||
         policy == "RandomEligible";
}

// Policies whose decisions ignore engine state entirely: the nc run picks
// the same machine sequence at ANY setup, so paying setups and losing
// clairvoyance can only delay completions — the clairvoyant Fmax is a true
// lower bound ([nc-clair-lb]). JSQ is deliberately NOT here: a nonzero
// setup shifts completion times and hence the queue-depth evolution, so its
// nc decisions legitimately diverge from the clairvoyant run and no
// domination holds.
bool nc_state_oblivious(const std::string& policy) {
  return policy == "RoundRobin" || policy == "RandomEligible";
}

// Non-clairvoyant battery for one policy: the censored engine run under the
// nc-mode auditor ([setup-accounting] et al.), the [nc-no-peek]
// counterfactual replay, the [nc-lb]/[nc-ceiling] bound oracles, and the clairvoyant differentials for
// the oblivious policies. Shared by the fuzz loop, the nc shrink predicate,
// and nc-case replay.
std::vector<std::string> check_nc(const Instance& inst,
                                  const std::string& policy, double setup,
                                  const Oracles& oracles, bool inject_nc_bug) {
  AuditConfig acfg;
  acfg.nc_mode = true;
  acfg.nc_setup = setup;
  InvariantAuditor auditor(acfg);
  auto inner = make_dispatcher(policy, /*inject_bug=*/false);
  NcDispatcher ncd(*inner);
  const OnlineEngine engine =
      run_dispatcher_nc(inst, ncd, setup, &auditor, RunTag{}, inject_nc_bug);
  std::vector<std::string> out = auditor.violations();

  const int n = inst.n();
  const double fmax = nc_max_flow(engine);
  double work = 0.0;
  double pmax = 0.0;
  for (const Task& t : inst.tasks()) {
    work += t.proc;
    pmax = std::max(pmax, t.proc);
  }

  // [nc-lb] Fmax >= pmax for any schedule, and >= the clairvoyant optimum
  // when the bruteforce oracle ran: deleting the setups from an nc schedule
  // leaves a feasible clairvoyant schedule with no larger flows, so the
  // clairvoyant OPT lower-bounds every nc run.
  if (fmax + 1e-6 < pmax) {
    out.push_back(policy + ": [nc-lb] nc Fmax " + fmt(fmax) + " below pmax " +
                  fmt(pmax));
  }
  if (oracles.bruteforce >= 0 && fmax < oracles.bruteforce - 1e-6) {
    out.push_back(policy + ": [nc-lb] nc Fmax " + fmt(fmax) +
                  " beats the clairvoyant optimum " + fmt(oracles.bruteforce));
  }

  // [nc-ceiling] Immediate dispatch delays a task by at most the total
  // outstanding work plus every setup the machine can be charged (n others
  // plus its own): Fmax <= W + (n+1)*setup + pmax.
  const double ceiling = work + (n + 1) * setup + pmax;
  if (fmax > ceiling + 1e-6) {
    out.push_back(policy + ": [nc-ceiling] nc Fmax " + fmt(fmax) +
                  " exceeds W + (n+1)*setup + pmax = " + fmt(ceiling));
  }

  // [nc-no-peek] Counterfactual replay: rotate the hidden p_i among the
  // tasks still in flight at the last release T and pad each with the
  // integer floor(T)+1. The pad keeps every permuted task in flight through
  // T in both worlds, and settled work is untouched, so every censored
  // observable at every dispatch instant — queue depths, busy flags,
  // finished work, the censored frontier — is bitwise unchanged. A policy
  // that sees only the censored view must therefore pick the same machines;
  // starts may legitimately move (the true frontiers change), so machines
  // are the whole comparison.
  if (n > 0) {
    const double T = inst.task(n - 1).release;
    std::vector<int> late;
    for (int i = 0; i < n; ++i) {
      if (engine.completion_of(i) > T) late.push_back(i);
    }
    if (!late.empty()) {
      const double pad = std::floor(T) + 1.0;
      const std::span<const Task> task_view = inst.tasks();
      std::vector<Task> tasks(task_view.begin(), task_view.end());
      std::vector<double> procs;
      procs.reserve(late.size());
      for (int i : late) {
        procs.push_back(tasks[static_cast<std::size_t>(i)].proc);
      }
      std::rotate(procs.begin(), procs.begin() + 1, procs.end());
      for (std::size_t k = 0; k < late.size(); ++k) {
        tasks[static_cast<std::size_t>(late[k])].proc = procs[k] + pad;
      }
      const Instance permuted(inst.m(), std::move(tasks));
      auto inner2 = make_dispatcher(policy, /*inject_bug=*/false);
      NcDispatcher ncd2(*inner2);
      const OnlineEngine replay = run_dispatcher_nc(
          permuted, ncd2, setup, nullptr, RunTag{}, inject_nc_bug);
      for (int i = 0; i < n; ++i) {
        if (replay.machine_of(i) != engine.machine_of(i)) {
          out.push_back(policy + ": [nc-no-peek] task " + std::to_string(i) +
                        " moves from machine " +
                        std::to_string(engine.machine_of(i)) + " to machine " +
                        std::to_string(replay.machine_of(i)) +
                        " when the hidden processing times are permuted — "
                        "the policy is peeking at p_i");
          break;  // later tasks inherit the divergence
        }
      }
    }
  }

  if (clairvoyance_oblivious(policy)) {
    auto plain = make_dispatcher(policy, /*inject_bug=*/false);
    OnlineEngine clair(inst.m(), *plain);
    std::vector<Assignment> ref;
    ref.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) ref.push_back(clair.release(inst.task(i)));

    // [diff-nc] At setup 0 the censored run must be bit-equal to the
    // clairvoyant engine: these policies read only fields censoring leaves
    // untouched, so withholding p_i cannot change a single decision.
    auto inner0 = make_dispatcher(policy, /*inject_bug=*/false);
    NcDispatcher ncd0(*inner0);
    const OnlineEngine nc0 = run_dispatcher_nc(inst, ncd0, /*setup=*/0.0,
                                               nullptr, RunTag{},
                                               inject_nc_bug);
    for (int i = 0; i < n; ++i) {
      const Assignment& a = ref[static_cast<std::size_t>(i)];
      if (nc0.machine_of(i) != a.machine || nc0.start_of(i) != a.start) {
        out.push_back(policy + ": [diff-nc] task " + std::to_string(i) +
                      " diverges at setup 0: clairvoyant (machine " +
                      std::to_string(a.machine) + ", start " + fmt(a.start) +
                      ") vs nc (machine " + std::to_string(nc0.machine_of(i)) +
                      ", start " + fmt(nc0.start_of(i)) + ")");
        break;  // later tasks inherit the divergence
      }
    }

    // [nc-clair-lb] State-oblivious policies pick the same machine sequence
    // at any setup, so the nc run is the clairvoyant schedule with setups
    // inserted: Fmax_nc >= Fmax_clairvoyant.
    if (setup > 0 && nc_state_oblivious(policy)) {
      double clair_fmax = 0.0;
      for (int i = 0; i < n; ++i) {
        clair_fmax = std::max(clair_fmax,
                              ref[static_cast<std::size_t>(i)].start +
                                  inst.task(i).proc - inst.task(i).release);
      }
      if (fmax + 1e-6 < clair_fmax) {
        out.push_back(policy + ": [nc-clair-lb] nc Fmax " + fmt(fmax) +
                      " below the clairvoyant Fmax " + fmt(clair_fmax));
      }
    }
  }
  return out;
}

// Weighted battery for one policy: the weighted instance through the
// auditor + MetricsCollector fan-out, then
//   [weighted-accounting] — Schedule and MetricsCollector aggregate
//     w_i * F_i by independent code paths over the shared
//     weighted_flow_term / exact-Rational-sum recipe, so they must agree
//     bitwise;
//   [weighted-ceiling] — Fmax^w <= wmax * (W + pmax), the weighted form of
//     the [diff-bounds] work ceiling;
//   [diff-weighted] — weights must never affect decisions: the unit-weight
//     copy reproduces the schedule assignment-for-assignment, every
//     unweighted report field bit-for-bit, and its weighted aggregates
//     collapse onto the unweighted ones.
// Shared by the fuzz loop, the weighted shrink predicate, and corpus
// replay.
std::vector<std::string> check_weighted(const Instance& inst,
                                        const std::string& policy) {
  InvariantAuditor auditor;
  MetricsCollector metrics;
  MulticastObserver fan({&auditor, &metrics});
  auto dispatcher = make_dispatcher(policy, /*inject_bug=*/false);
  const Schedule sched = run_dispatcher(inst, *dispatcher, fan);
  std::vector<std::string> out = auditor.violations();

  const double s_fmax = sched.max_weighted_flow();
  const double s_total = sched.total_weighted_flow();
  if (metrics.max_weighted_flow() != s_fmax ||
      metrics.total_weighted_flow() != s_total) {
    out.push_back(policy + ": [weighted-accounting] collector (Fmax^w " +
                  fmt(metrics.max_weighted_flow()) + ", total " +
                  fmt(metrics.total_weighted_flow()) +
                  ") != schedule (Fmax^w " + fmt(s_fmax) + ", total " +
                  fmt(s_total) + ")");
  }
  if (!inst.unit_weights() && !metrics.any_weighted()) {
    out.push_back(policy +
                  ": [weighted-accounting] collector saw no non-unit weight "
                  "on a weighted instance");
  }

  double work = 0.0;
  double pmax = 0.0;
  for (const Task& t : inst.tasks()) {
    work += t.proc;
    pmax = std::max(pmax, t.proc);
  }
  const double ceiling = inst.wmax() * (work + pmax);
  if (s_fmax > ceiling + 1e-6) {
    out.push_back(policy + ": [weighted-ceiling] Fmax^w " + fmt(s_fmax) +
                  " exceeds wmax * (W + pmax) = " + fmt(ceiling));
  }

  const std::span<const Task> task_view = inst.tasks();
  std::vector<Task> unit_tasks(task_view.begin(), task_view.end());
  for (Task& t : unit_tasks) t.weight = 1.0;
  const Instance unit_inst(inst.m(), std::move(unit_tasks));
  MetricsCollector unit_metrics;
  auto unit_dispatcher = make_dispatcher(policy, /*inject_bug=*/false);
  const Schedule unit_sched =
      run_dispatcher(unit_inst, *unit_dispatcher, unit_metrics);
  for (int i = 0; i < inst.n(); ++i) {
    if (unit_sched.machine(i) != sched.machine(i) ||
        unit_sched.start(i) != sched.start(i)) {
      out.push_back(policy + ": [diff-weighted] task " + std::to_string(i) +
                    " assignment changes with weights: unit (machine " +
                    std::to_string(unit_sched.machine(i)) + ", start " +
                    fmt(unit_sched.start(i)) + ") vs weighted (machine " +
                    std::to_string(sched.machine(i)) + ", start " +
                    fmt(sched.start(i)) + ")");
      break;  // later tasks inherit the divergence
    }
  }
  if (unit_metrics.max_flow() != metrics.max_flow() ||
      unit_metrics.mean_flow() != metrics.mean_flow() ||
      unit_metrics.makespan() != metrics.makespan()) {
    out.push_back(policy +
                  ": [diff-weighted] an unweighted report field drifts when "
                  "weights are attached (Fmax " + fmt(unit_metrics.max_flow()) +
                  " vs " + fmt(metrics.max_flow()) + ", mean " +
                  fmt(unit_metrics.mean_flow()) + " vs " +
                  fmt(metrics.mean_flow()) + ", makespan " +
                  fmt(unit_metrics.makespan()) + " vs " +
                  fmt(metrics.makespan()) + ")");
  }
  if (unit_metrics.any_weighted()) {
    out.push_back(policy +
                  ": [diff-weighted] unit-weight run reports any_weighted");
  }
  // Collapse: at unit weights every weighted_flow_term(1, F_i) is bitwise
  // F_i, so Fmax^w must equal Fmax, and the collector's and the schedule's
  // exact total accumulations must still agree term-for-term.
  if (unit_metrics.max_weighted_flow() != unit_metrics.max_flow() ||
      unit_metrics.total_weighted_flow() != unit_sched.total_weighted_flow()) {
    out.push_back(policy + ": [diff-weighted] unit weights: Fmax^w " +
                  fmt(unit_metrics.max_weighted_flow()) + " != Fmax " +
                  fmt(unit_metrics.max_flow()) + " or collector total^w " +
                  fmt(unit_metrics.total_weighted_flow()) +
                  " != schedule total^w " +
                  fmt(unit_sched.total_weighted_flow()));
  }
  return out;
}

// The battery's plan is a pure function of (plan_seed, m): the shrinker
// regenerates it for each candidate's machine count, so dropping machines
// keeps the predicate deterministic.
FaultPlan plan_for(std::uint64_t plan_seed, const FaultModelConfig& model,
                   int m) {
  Rng prng(plan_seed);
  return FaultPlan::random(m, model, prng);
}

// Policies the control battery drives. A subset of fault_fuzz_policies():
// the adaptive run re-solves candidate LPs at every decision epoch, so the
// battery keeps the policy fan-out small; these four cover the
// completion-frontier, load, queue-depth, and stateless families.
const std::vector<std::string>& control_fuzz_policies() {
  static const std::vector<std::string> kPolicies = {
      "EFT-Min", "LeastLoaded-Min", "JSQ-Min", "RoundRobin"};
  return kPolicies;
}

// The control battery's scenario is a pure function of (instance, cseed):
// the shrinker regenerates it for every candidate instance and the
// reproducer carries only the seed (a "control <cseed>" directive). The
// fixed-count draws (layout, config, plan) come first so shrinking the
// request stream never perturbs them; the per-request keys follow. The
// fault model is pinned here — not taken from FuzzConfig — so a committed
// reproducer replays bit-identically with no extra state to carry.
ControlCase control_case_for(const Instance& inst, std::uint64_t cseed) {
  Rng crng(cseed);
  ControlCase c;
  c.m = inst.m();
  c.initial.strategy = crng.bernoulli(0.5) ? ReplicationStrategy::kOverlapping
                                           : ReplicationStrategy::kDisjoint;
  c.initial.k = static_cast<int>(crng.uniform_int(1, std::min(3, c.m)));
  // All knobs on the dyadic grid, so every observation and score the
  // [control-determinism] replay compares is exactly representable.
  c.control.period = static_cast<double>(crng.uniform_int(1, 4)) / 2.0;
  c.control.hysteresis =
      1.0 + static_cast<double>(crng.uniform_int(0, 4)) / 8.0;
  c.control.cooldown = static_cast<int>(crng.uniform_int(0, 2));
  c.control.setup_cost = static_cast<double>(crng.uniform_int(1, 4)) / 8.0;
  crng.bernoulli(0.125);  // unused; keeps committed "control <cseed>" cases
  const bool with_faults = crng.bernoulli(0.5);
  if (with_faults) {
    const FaultModelConfig model;  // the default crash/repair process
    c.plan = FaultPlan::random(c.m, model, crng);
    c.recovery.kind = kRecoveryCycle[crng.uniform_int(0, 2)];
  }
  c.release.reserve(static_cast<std::size_t>(inst.n()));
  c.proc.reserve(static_cast<std::size_t>(inst.n()));
  c.key.reserve(static_cast<std::size_t>(inst.n()));
  for (const Task& t : inst.tasks()) {
    c.release.push_back(t.release);
    c.proc.push_back(t.proc);
    c.key.push_back(static_cast<int>(crng.uniform_int(0, 4 * c.m - 1)));
  }
  return c;
}

// Control battery for one policy: the adaptive run under the auditor,
// check_control_run over its ControlLog ([control-determinism],
// [control-movement-bound], [control-setup-accounting]), then the
// [diff-control] differential — the controller-off run must equal the
// static path bitwise. Shared by the fuzz loop, the control shrink
// predicate, and control-case replay.
std::vector<std::string> check_control(const Instance& inst,
                                       std::uint64_t cseed,
                                       const std::string& policy,
                                       bool inject_control_bug) {
  const ControlCase cc = control_case_for(inst, cseed);
  AuditConfig acfg;
  acfg.fault_mode = cc.faulty();
  // Eligible sets change mid-run as the layout migrates, so the
  // dispatcher-name behavioural contracts (work conservation, FIFO order)
  // do not apply; the structural checks and the control checks are the
  // battery's whole contract.
  acfg.infer_from_algo = false;
  InvariantAuditor auditor(acfg);
  auto adaptive_dispatcher = make_dispatcher(policy, /*inject_bug=*/false);
  const AdaptiveRunReport adaptive = run_adaptive(
      cc, *adaptive_dispatcher, /*enabled=*/true, &auditor,
      inject_control_bug);
  auditor.check_control_run(adaptive.log, cc.control, cc.m, cc.initial);
  std::vector<std::string> out = auditor.violations();

  // [diff-control] With the controller disabled no decision, migration, or
  // setup charge may exist, and the run must collapse onto the plain static
  // path — compared field-by-field bitwise, flows element-wise.
  auto off_dispatcher = make_dispatcher(policy, /*inject_bug=*/false);
  const AdaptiveRunReport off =
      run_adaptive(cc, *off_dispatcher, /*enabled=*/false);
  auto static_dispatcher = make_dispatcher(policy, /*inject_bug=*/false);
  const AdaptiveRunReport stat = run_static(cc, *static_dispatcher);
  if (off.flows != stat.flows || off.fmax != stat.fmax ||
      off.mean_flow != stat.mean_flow || off.makespan != stat.makespan ||
      off.completed != stat.completed || off.dropped != stat.dropped ||
      off.parked != stat.parked || off.retried != stat.retried ||
      off.wasted_work != stat.wasted_work || off.decisions != 0 ||
      off.setup_total != 0) {
    out.push_back(policy +
                  ": [diff-control] controller-off run diverges from the "
                  "static path: off {" + off.str() + "} vs static {" +
                  stat.str() + "}");
  }
  return out;
}

// Hall-vs-simplex differential on a fresh random replica system: the
// max-flow Hall ratio (max_load_lp) and the dense tableau
// (max_load_lp_tableau) solve the same max-load LP by disjoint code paths,
// so agreement is a strong check on both.
std::optional<std::string> lp_differential(Rng& rng) {
  const int m = static_cast<int>(rng.uniform_int(3, 8));
  std::vector<int> pool(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) pool[static_cast<std::size_t>(j)] = j;
  std::vector<ProcSet> sets;
  sets.reserve(static_cast<std::size_t>(m));
  std::vector<double> popularity;
  popularity.reserve(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) {
    const int k = static_cast<int>(rng.uniform_int(1, m));
    rng.shuffle(pool);
    sets.emplace_back(std::vector<int>(pool.begin(), pool.begin() + k));
    popularity.push_back(rng.uniform(0.0, 1.0));
  }
  const double hall = max_load_lp(popularity, sets).lambda;
  const double tableau = max_load_lp_tableau(popularity, sets).lambda;
  const double scale = std::max(1.0, std::abs(tableau));
  if (std::abs(hall - tableau) > 1e-6 * scale) {
    return "[diff-lp] Hall lambda " + fmt(hall) + " != simplex lambda " +
           fmt(tableau) + " (m=" + std::to_string(m) + ")";
  }
  return std::nullopt;
}

// Closed-form differential: a random ring or block layout with random
// popularity and random crashes, scored by max_load_windows and by the Hall
// oracle and the tableau on the degraded replica sets. An owner left with no up
// replica must give lambda = 0 (the general solvers reject empty sets).
std::optional<std::string> lp_window_differential(Rng& rng) {
  const int m = static_cast<int>(rng.uniform_int(2, 16));
  const ReplicationStrategy strategy = rng.bernoulli(0.5)
                                           ? ReplicationStrategy::kOverlapping
                                           : ReplicationStrategy::kDisjoint;
  const int k = static_cast<int>(rng.uniform_int(1, m));
  std::vector<double> popularity(static_cast<std::size_t>(m));
  std::vector<std::uint8_t> up(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) {
    popularity[static_cast<std::size_t>(j)] = rng.uniform(0.0, 1.0);
    up[static_cast<std::size_t>(j)] = rng.bernoulli(0.25) ? 0 : 1;
  }
  std::vector<ProcSet> degraded;
  bool starved = false;
  for (const ProcSet& full : replica_sets(strategy, k, m)) {
    std::vector<int> members;
    for (int i : full.machines()) {
      if (up[static_cast<std::size_t>(i)]) members.push_back(i);
    }
    starved = starved || members.empty();
    degraded.emplace_back(std::move(members));
  }
  const double windows = max_load_windows(popularity, strategy, k, up).lambda;
  std::string up_mask;
  for (std::uint8_t u : up) up_mask.push_back(u ? '1' : '0');
  const std::string where = " (" + to_string(strategy) + " m=" +
                            std::to_string(m) + " k=" + std::to_string(k) +
                            " up=" + up_mask + ")";
  if (starved) {
    if (windows == 0.0) return std::nullopt;
    return "[diff-lp] window lambda " + fmt(windows) +
           " != 0 with an owner left no up replica" + where;
  }
  const double hall = max_load_lp(popularity, degraded).lambda;
  const double tableau = max_load_lp_tableau(popularity, degraded).lambda;
  const double scale = std::max(1.0, std::abs(tableau));
  if (std::abs(windows - hall) > 1e-6 * scale ||
      std::abs(windows - tableau) > 1e-6 * scale) {
    return "[diff-lp] window lambda " + fmt(windows) + " != Hall lambda " +
           fmt(hall) + " / simplex lambda " + fmt(tableau) + where;
  }
  return std::nullopt;
}

// "[tag]" extracted from a violation line, "" when absent.
std::string tag_of(const std::string& violation) {
  const std::size_t open = violation.find('[');
  if (open == std::string::npos) return "";
  const std::size_t close = violation.find(']', open);
  if (close == std::string::npos) return "";
  return violation.substr(open, close - open + 1);
}

// Fault-battery provenance of a finding: enough to regenerate the exact
// plan for any candidate instance (shrinking) and to serialize it into the
// reproducer.
struct FaultContext {
  std::uint64_t plan_seed = 0;
  RecoveryPolicy recovery;
};

// Non-clairvoyant-battery provenance of a finding: the setup time is all
// the shrinker and the reproducer need (the policy seed is fixed and the
// leak flag comes from the config).
struct NcContext {
  double setup = 0.0;
};

// Control-battery provenance of a finding: the case seed regenerates the
// full scenario (layout, config, keys, plan) for any candidate instance.
struct ControlContext {
  std::uint64_t cseed = 0;
};

struct RawFinding {
  std::string policy;
  std::string check;
  std::optional<Instance> inst = {};  // absent for [diff-lp]
  std::optional<FaultContext> fault = {};  // present for [fault-*] findings
  std::optional<NcContext> nc = {};  // present for nc-battery findings
  std::optional<ControlContext> control = {};  // present for control findings
  bool stream = false;  // found by the batch-vs-streaming battery
};

struct RunOutcome {
  FuzzStructure structure = FuzzStructure::kInclusive;
  int schedules = 0;
  int lp_checks = 0;
  int fault_checks = 0;
  int stream_checks = 0;
  int bounds_checks = 0;
  int shard_checks = 0;
  int nc_checks = 0;
  int weighted_checks = 0;
  int control_checks = 0;
  std::vector<RawFinding> findings;
};

RunOutcome fuzz_one(const FuzzConfig& config,
                    const std::vector<FuzzStructure>& structures, int run) {
  RunOutcome out;
  // replicate_seed is the runner's thread-invariant stream derivation: the
  // run index alone picks the stream, so --threads N is byte-identical to
  // --threads 1.
  const std::uint64_t seed =
      replicate_seed(experiment_id("flowsched_fuzz"), cell_id({config.seed}),
                     static_cast<std::uint64_t>(run));
  Rng rng(seed);
  out.structure = structures[static_cast<std::size_t>(run) % structures.size()];

  StructuredInstanceOptions sizes = config.sizes;
  if (!sizes.unit_tasks) sizes.unit_tasks = rng.bernoulli(0.35);
  const Instance inst = random_structured_instance(out.structure, sizes, rng);

  const Oracles oracles = compute_oracles(inst, config.differential);
  if (auto cross = oracle_cross_check(oracles)) {
    out.findings.push_back({"oracle", *cross, inst});
  }

  const CheckOpts opts{config.bound_oracles, config.differential,
                       config.inject_bug, config.bounds_diff};
  if (config.differential && config.bounds_diff) out.bounds_checks = 1;
  for (const std::string& policy : policies_for(inst)) {
    const std::vector<std::string> violations =
        check_policy(inst, policy, opts, oracles);
    ++out.schedules;
    if (!violations.empty()) {
      out.findings.push_back({policy, violations.front(), inst});
    }
  }

  if (config.lp_every > 0 && run % config.lp_every == 0) {
    out.lp_checks = 1;
    if (auto lp = lp_differential(rng)) {
      out.findings.push_back({"lp", *lp});
    }
    // Drawn from its own stream, so the main stream's draws, and with them
    // every pinned seed's report, do not depend on this case.
    Rng window_rng(replicate_seed(experiment_id("flowsched_fuzz/lp-window"),
                                  cell_id({config.seed}),
                                  static_cast<std::uint64_t>(run)));
    if (auto lp = lp_window_differential(window_rng)) {
      out.findings.push_back({"lp", *lp});
    }
  }

  if (config.stream_every > 0 && run % config.stream_every == 0) {
    out.stream_checks = 1;
    for (const std::string& policy : fault_fuzz_policies()) {
      const std::vector<std::string> violations =
          check_streaming(inst, policy);
      ++out.schedules;
      if (!violations.empty()) {
        out.findings.push_back({.policy = policy,
                                .check = violations.front(),
                                .inst = inst,
                                .stream = true});
      }
    }
  }

  if (config.shard_every > 0 && run % config.shard_every == 0 &&
      inst.m() >= 2) {
    out.shard_checks = 1;
    for (const std::string& policy : shard_equiv_policies()) {
      const std::vector<std::string> violations = check_sharded(inst, policy);
      ++out.schedules;
      if (!violations.empty()) {
        out.findings.push_back({policy, violations.front(), inst});
      }
    }
  }

  if (config.fault_every > 0 && run % config.fault_every == 0) {
    out.fault_checks = 1;
    FaultContext fc;
    fc.plan_seed = rng();
    fc.recovery.kind = kRecoveryCycle[static_cast<std::size_t>(
        run / config.fault_every) % std::size(kRecoveryCycle)];
    const FaultPlan plan = plan_for(fc.plan_seed, config.fault_model, inst.m());
    for (const std::string& policy : fault_fuzz_policies()) {
      const std::vector<std::string> violations = check_fault_policy(
          inst, plan, fc.recovery, policy, config.inject_fault_bug);
      ++out.schedules;
      if (!violations.empty()) {
        out.findings.push_back({policy, violations.front(), inst, fc});
      }
    }
  }

  // Both new batteries draw AFTER every pre-existing draw above, so arming
  // or disarming them never perturbs the instances, plans, or LP systems of
  // a pinned seed.
  if (config.nc_every > 0 && run % config.nc_every == 0) {
    out.nc_checks = 1;
    // Setup times on the dyadic grid, strictly positive so the setup
    // accounting is always exercised; [diff-nc] runs at setup 0 inside the
    // battery regardless.
    const double setup = static_cast<double>(rng.uniform_int(1, 4)) / 8.0;
    for (const std::string& policy : fault_fuzz_policies()) {
      const std::vector<std::string> violations =
          check_nc(inst, policy, setup, oracles, config.inject_nc_bug);
      ++out.schedules;
      if (!violations.empty()) {
        out.findings.push_back({.policy = policy,
                                .check = violations.front(),
                                .inst = inst,
                                .nc = NcContext{setup}});
      }
    }
  }

  if (config.weighted_every > 0 && run % config.weighted_every == 0) {
    out.weighted_checks = 1;
    const Instance winst = with_random_weights(inst, rng);
    for (const std::string& policy : fault_fuzz_policies()) {
      const std::vector<std::string> violations = check_weighted(winst, policy);
      ++out.schedules;
      if (!violations.empty()) {
        // The weighted instance itself is the finding: its weights ride
        // through the shrinker's task-drop moves and into the reproducer's
        // 4th column.
        out.findings.push_back({policy, violations.front(), winst});
      }
    }
  }

  // The control battery draws last of all (the same seed-stability rule as
  // the nc/weighted batteries above): arming or disarming it never perturbs
  // the instances, plans, setups, or weights of a pinned seed.
  if (config.control_every > 0 && run % config.control_every == 0) {
    out.control_checks = 1;
    const std::uint64_t cseed = rng();
    for (const std::string& policy : control_fuzz_policies()) {
      const std::vector<std::string> violations =
          check_control(inst, cseed, policy, config.inject_control_bug);
      ++out.schedules;
      if (!violations.empty()) {
        out.findings.push_back({.policy = policy,
                                .check = violations.front(),
                                .inst = inst,
                                .control = ControlContext{cseed}});
      }
    }
  }
  return out;
}

std::string sanitize(const std::string& name) {
  std::string out;
  for (char c : name) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c))
                      ? static_cast<char>(std::tolower(
                            static_cast<unsigned char>(c)))
                      : '-');
  }
  return out;
}

// `body` is instance_to_string(minimized) for plain findings and
// fault_case_to_string(...) for fault findings — the replayer routes on the
// directives, so the header stays format-agnostic.
std::string reproducer_text(const FuzzConfig& config, const FuzzFinding& f,
                            const std::string& body) {
  std::ostringstream os;
  os << "# flowsched_fuzz reproducer (seed=" << config.seed
     << " run=" << f.run << " structure=" << to_string(f.structure) << ")\n";
  os << "# policy: " << f.policy << "\n";
  os << "# check: " << f.check << "\n";
  os << "# replay: flowsched_fuzz replay <this file>\n";
  os << body;
  return os.str();
}

}  // namespace

void FaultyEftDispatcher::reset(int m) {
  finish_.assign(static_cast<std::size_t>(m), {});
  cursor_.assign(static_cast<std::size_t>(m), 0);
}

int FaultyEftDispatcher::dispatch(const Task& t, const MachineState& state) {
  const int m = static_cast<int>(state.completion.size());
  std::vector<int> eligible = t.eligible.machines();
  if (eligible.empty()) {
    eligible.resize(static_cast<std::size_t>(m));
    for (int j = 0; j < m; ++j) eligible[static_cast<std::size_t>(j)] = j;
  }
  // "Idle scan": advance the finished cursor, then compute the queue depth
  // with the off-by-one — a machine with one unfinished task reports 0.
  int first_idle = -1;
  for (int j : eligible) {
    const auto uj = static_cast<std::size_t>(j);
    const std::vector<double>& f = finish_[uj];
    std::size_t& c = cursor_[uj];
    while (c < f.size() && f[c] <= t.release) ++c;
    const auto depth =
        static_cast<std::ptrdiff_t>(f.size()) - static_cast<std::ptrdiff_t>(c) - 1;
    if (depth <= 0 && first_idle < 0) first_idle = j;
  }
  int pick = first_idle;
  if (pick < 0) {
    // Fall back to genuine EFT (min completion frontier, min index).
    pick = eligible.front();
    for (int j : eligible) {
      if (state.completion[static_cast<std::size_t>(j)] <
          state.completion[static_cast<std::size_t>(pick)]) {
        pick = j;
      }
    }
  }
  const auto up = static_cast<std::size_t>(pick);
  const double start = std::max(t.release, state.completion[up]);
  finish_[up].push_back(start + t.proc);
  return pick;
}

const std::vector<std::string>& fuzz_policies() {
  static const std::vector<std::string> kPolicies = {
      "EFT-Min",         "EFT-Max",   "EFT-Rand", "LeastLoaded-Min",
      "JSQ-Min",         "RoundRobin", "RandomEligible",
      "Pow2",            "FIFO-eligible"};
  return kPolicies;
}

const std::vector<std::string>& fault_fuzz_policies() {
  static const std::vector<std::string> kPolicies = {
      "EFT-Min", "EFT-Max",        "EFT-Rand", "LeastLoaded-Min",
      "JSQ-Min", "RoundRobin",     "RandomEligible", "Pow2"};
  return kPolicies;
}

std::vector<std::string> replay_fault_case(const FaultCase& fc) {
  std::vector<std::string> out;
  for (const std::string& policy : fault_fuzz_policies()) {
    for (const std::string& v :
         check_fault_policy(fc.instance, fc.plan, fc.recovery, policy,
                            /*inject_fault_bug=*/false)) {
      out.push_back(policy + ": " + v);
    }
  }
  return out;
}

std::vector<std::string> replay_nc_case(const Instance& inst, double setup) {
  std::vector<std::string> out;
  const Oracles oracles = compute_oracles(inst, /*differential=*/true);
  for (const std::string& policy : fault_fuzz_policies()) {
    for (const std::string& v :
         check_nc(inst, policy, setup, oracles, /*inject_nc_bug=*/false)) {
      out.push_back(policy + ": " + v);
    }
  }
  return out;
}

std::vector<std::string> replay_control_case(const Instance& inst,
                                             std::uint64_t cseed) {
  std::vector<std::string> out;
  for (const std::string& policy : control_fuzz_policies()) {
    for (const std::string& v :
         check_control(inst, cseed, policy, /*inject_control_bug=*/false)) {
      out.push_back(policy + ": " + v);
    }
  }
  return out;
}

std::vector<std::string> replay_corpus_instance(const Instance& inst,
                                                bool bound_oracles,
                                                bool differential) {
  const Oracles oracles = compute_oracles(inst, differential);
  std::vector<std::string> out;
  if (auto cross = oracle_cross_check(oracles)) out.push_back(*cross);
  const CheckOpts opts{bound_oracles, differential, /*inject_bug=*/false};
  for (const std::string& policy : policies_for(inst)) {
    for (const std::string& v : check_policy(inst, policy, opts, oracles)) {
      out.push_back(policy + ": " + v);
    }
  }
  if (differential) {
    // Corpus instances also pin the batch-vs-streaming equivalence: a
    // committed reproducer keeps witnessing the engines agree.
    for (const std::string& policy : fault_fuzz_policies()) {
      for (const std::string& v : check_streaming(inst, policy)) {
        out.push_back(policy + ": " + v);
      }
    }
    // ... and the sharded-vs-single-queue equivalence ([shard-equiv] is
    // clean over the whole committed corpus, not just fresh fuzz runs).
    for (const std::string& policy : shard_equiv_policies()) {
      for (const std::string& v : check_sharded(inst, policy)) {
        out.push_back(policy + ": " + v);
      }
    }
    // Weighted corpus instances additionally pin the weighted battery: the
    // committed heavy-tail reproducers keep witnessing the weighted
    // aggregates and the weight-blindness of the dispatchers.
    if (!inst.unit_weights()) {
      for (const std::string& policy : fault_fuzz_policies()) {
        for (const std::string& v : check_weighted(inst, policy)) {
          out.push_back(policy + ": " + v);
        }
      }
    }
  }
  return out;
}

std::vector<std::string> replay_corpus_file(const std::string& path,
                                            bool bound_oracles,
                                            bool differential) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("replay_corpus_file: cannot open " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  if (has_fault_directives(text)) {
    return replay_fault_case(parse_fault_case(text));
  }
  // nc reproducers carry an "ncsetup <v>" directive ahead of the instance
  // and control reproducers a "control <cseed>" directive: strip the
  // directive and route the remainder through the matching battery.
  std::istringstream lines(text);
  std::string line;
  std::string rest;
  std::optional<double> ncsetup;
  std::optional<std::uint64_t> control_seed;
  while (std::getline(lines, line)) {
    std::istringstream ls(line);
    std::string directive;
    if (ls >> directive) {
      if (directive == "ncsetup") {
        double v = 0;
        if (!(ls >> v) || v < 0) {
          throw std::runtime_error("replay_corpus_file: bad ncsetup line in " +
                                   path);
        }
        ncsetup = v;
        continue;
      }
      if (directive == "control") {
        std::uint64_t v = 0;
        if (!(ls >> v)) {
          throw std::runtime_error("replay_corpus_file: bad control line in " +
                                   path);
        }
        control_seed = v;
        continue;
      }
    }
    rest += line;
    rest += '\n';
  }
  if (ncsetup.has_value()) {
    return replay_nc_case(parse_instance_string(rest), *ncsetup);
  }
  if (control_seed.has_value()) {
    return replay_control_case(parse_instance_string(rest), *control_seed);
  }
  return replay_corpus_instance(parse_instance_string(text), bound_oracles,
                                differential);
}

std::string FuzzReport::summary() const {
  std::ostringstream os;
  os << "flowsched_fuzz: runs=" << runs << " schedules=" << schedules
     << " lp-checks=" << lp_checks << " fault-checks=" << fault_checks
     << " stream-checks=" << stream_checks << " bounds-checks=" << bounds_checks
     << " shard-checks=" << shard_checks << " nc-checks=" << nc_checks
     << " weighted-checks=" << weighted_checks
     << " control-checks=" << control_checks
     << " findings=" << findings.size() << "\n";
  int i = 0;
  for (const FuzzFinding& f : findings) {
    os << "  finding " << ++i << ": run=" << f.run
       << " structure=" << to_string(f.structure) << " policy=" << f.policy;
    if (f.shrunk_n > 0) os << " shrunk-to=" << f.shrunk_n << " tasks";
    if (!f.path.empty()) os << " -> " << f.path;
    os << "\n    " << f.check << "\n";
  }
  return os.str();
}

FuzzReport run_fuzz(const FuzzConfig& config) {
  if (config.runs < 0) throw std::invalid_argument("run_fuzz: runs < 0");
  const std::vector<FuzzStructure> structures =
      config.structures.empty()
          ? std::vector<FuzzStructure>(std::begin(kAllFuzzStructures),
                                       std::end(kAllFuzzStructures))
          : config.structures;

  std::vector<RunOutcome> outcomes(static_cast<std::size_t>(config.runs));
  const int threads = resolve_threads(config.threads);
  if (threads <= 1 || config.runs <= 1) {
    for (int r = 0; r < config.runs; ++r) {
      outcomes[static_cast<std::size_t>(r)] = fuzz_one(config, structures, r);
    }
  } else {
    ThreadPool pool(threads);
    std::vector<std::future<RunOutcome>> futures;
    futures.reserve(static_cast<std::size_t>(config.runs));
    for (int r = 0; r < config.runs; ++r) {
      futures.push_back(
          pool.submit([&config, &structures, r] { return fuzz_one(config, structures, r); }));
    }
    // Collected in run order, so the report is independent of scheduling.
    for (int r = 0; r < config.runs; ++r) {
      outcomes[static_cast<std::size_t>(r)] = futures[static_cast<std::size_t>(r)].get();
    }
  }

  FuzzReport report;
  report.runs = config.runs;
  if (!config.corpus_dir.empty()) {
    std::filesystem::create_directories(config.corpus_dir);
  }
  for (int r = 0; r < config.runs; ++r) {
    RunOutcome& outcome = outcomes[static_cast<std::size_t>(r)];
    report.schedules += outcome.schedules;
    report.lp_checks += outcome.lp_checks;
    report.fault_checks += outcome.fault_checks;
    report.stream_checks += outcome.stream_checks;
    report.bounds_checks += outcome.bounds_checks;
    report.shard_checks += outcome.shard_checks;
    report.nc_checks += outcome.nc_checks;
    report.weighted_checks += outcome.weighted_checks;
    report.control_checks += outcome.control_checks;
    for (RawFinding& raw : outcome.findings) {
      FuzzFinding f;
      f.run = r;
      f.structure = outcome.structure;
      f.policy = raw.policy;
      f.check = raw.check;
      if (raw.inst.has_value()) {
        Instance minimized = *raw.inst;
        if (config.shrink) {
          const std::string tag = tag_of(raw.check);
          const CheckOpts opts{config.bound_oracles, config.differential,
                               config.inject_bug, config.bounds_diff};
          const FailurePredicate pred = [&](const Instance& cand) {
            if (raw.fault.has_value()) {
              // Regenerate the plan for the candidate's machine count; the
              // failure must survive under the candidate's own plan. Any
              // [fault-*] tag counts when the original was one: the fault
              // checks witness a single semantics contract, and dropping
              // tasks routinely shifts which of them fires first — exact
              // matching would strand the shrinker at a local minimum.
              const bool fault_family = tag.rfind("[fault-", 0) == 0;
              const FaultPlan cand_plan =
                  plan_for(raw.fault->plan_seed, config.fault_model, cand.m());
              for (const std::string& v :
                   check_fault_policy(cand, cand_plan, raw.fault->recovery,
                                      raw.policy, config.inject_fault_bug)) {
                const std::string t = tag_of(v);
                if (fault_family ? t.rfind("[fault-", 0) == 0 : t == tag) {
                  return true;
                }
              }
              return false;
            }
            // nc findings replay through the nc battery at the original
            // setup; any nc-family tag counts (one censored-semantics
            // contract — see the fault-family rationale above). The family
            // includes [setup-accounting]: it is the nc-mode auditor's
            // completion check, so it fires from the same battery.
            if (raw.nc.has_value()) {
              const bool nc_family = tag.rfind("[nc-", 0) == 0 ||
                                     tag.rfind("[diff-nc", 0) == 0 ||
                                     tag == "[setup-accounting]";
              const Oracles cand_oracles =
                  compute_oracles(cand, config.differential);
              for (const std::string& v :
                   check_nc(cand, raw.policy, raw.nc->setup, cand_oracles,
                            config.inject_nc_bug)) {
                const std::string t = tag_of(v);
                const bool in_family = t.rfind("[nc-", 0) == 0 ||
                                       t.rfind("[diff-nc", 0) == 0 ||
                                       t == "[setup-accounting]";
                if (nc_family ? in_family : t == tag) return true;
              }
              return false;
            }
            // Control findings replay through the control battery — the
            // case regenerates from (candidate, cseed); any control-family
            // tag counts (one controller contract — see the fault-family
            // rationale above).
            if (raw.control.has_value()) {
              const bool control_family = tag.rfind("[control-", 0) == 0 ||
                                          tag == "[diff-control]";
              for (const std::string& v :
                   check_control(cand, raw.control->cseed, raw.policy,
                                 config.inject_control_bug)) {
                const std::string t = tag_of(v);
                const bool in_family = t.rfind("[control-", 0) == 0 ||
                                       t == "[diff-control]";
                if (control_family ? in_family : t == tag) return true;
              }
              return false;
            }
            // Weighted findings replay through the weighted battery — the
            // candidate carries its own weights through the shrinker's
            // task-drop moves; any weighted-family tag counts.
            const bool weighted_family =
                tag == "[diff-weighted]" || tag.rfind("[weighted-", 0) == 0;
            if (weighted_family) {
              for (const std::string& v : check_weighted(cand, raw.policy)) {
                const std::string t = tag_of(v);
                if (t == "[diff-weighted]" || t.rfind("[weighted-", 0) == 0) {
                  return true;
                }
              }
              return false;
            }
            // Sharded findings replay through the sharded differential;
            // any [shard-*] tag counts (one equivalence contract — see the
            // fault-family rationale above).
            if (tag.rfind("[shard-", 0) == 0) {
              for (const std::string& v : check_sharded(cand, raw.policy)) {
                if (tag_of(v).rfind("[shard-", 0) == 0) return true;
              }
              return false;
            }
            // Streaming findings replay through the engine differential;
            // any of its lines counts (like the fault family, its
            // [diff-streaming] check and the streaming run's audit witness
            // one equivalence contract, and shrinking shifts which line
            // fires first).
            if (raw.stream) return !check_streaming(cand, raw.policy).empty();
            const Oracles cand_oracles =
                compute_oracles(cand, config.differential);
            if (raw.policy == "oracle") {
              return oracle_cross_check(cand_oracles).has_value();
            }
            for (const std::string& v :
                 check_policy(cand, raw.policy, opts, cand_oracles)) {
              if (tag_of(v) == tag) return true;
            }
            return false;
          };
          minimized =
              shrink_instance(*raw.inst, pred, config.shrink_max_calls);
        }
        f.shrunk_n = minimized.n();
        // nc reproducers carry the battery's setup time as an "ncsetup"
        // directive ahead of the instance, control reproducers the case
        // seed as a "control" directive; replay_corpus_file routes on them.
        std::string body;
        if (raw.fault.has_value()) {
          body = fault_case_to_string(
              minimized,
              plan_for(raw.fault->plan_seed, config.fault_model,
                       minimized.m()),
              raw.fault->recovery);
        } else if (raw.nc.has_value()) {
          body = "ncsetup " + fmt(raw.nc->setup) + "\n" +
                 instance_to_string(minimized);
        } else if (raw.control.has_value()) {
          body = "control " + std::to_string(raw.control->cseed) + "\n" +
                 instance_to_string(minimized);
        } else {
          body = instance_to_string(minimized);
        }
        f.instance_text = reproducer_text(config, f, body);
        if (!config.corpus_dir.empty()) {
          const std::string name = "fuzz-s" + std::to_string(config.seed) +
                                   "-r" + std::to_string(r) + "-" +
                                   sanitize(raw.policy) + ".txt";
          const std::filesystem::path path =
              std::filesystem::path(config.corpus_dir) / name;
          std::ofstream out(path);
          if (!out) {
            throw std::runtime_error("run_fuzz: cannot write " + path.string());
          }
          out << f.instance_text;
          f.path = path.string();
        }
      }
      report.findings.push_back(std::move(f));
    }
  }
  return report;
}

}  // namespace flowsched
