// flowsched_cli — run the library's schedulers on instance files.
//
// Usage:
//   flowsched_cli run  --algo <name> [--input FILE] [--csv] [--gantt]
//                      [--seed N]
//   flowsched_cli opt  [--input FILE] [--preemptive]
//   flowsched_cli gen  [--m N] [--n N] [--lambda X] [--k N] [--s X]
//                      [--strategy overlapping|disjoint|spread|none]
//                      [--seed N]
//   flowsched_cli bounds [--input FILE]
//   flowsched_cli bounds --m N [--k N] [--structure <class>|all]
//                        [--alg eft-min|eft|immediate|online] [--p X]
//   flowsched_cli bounds --m N --structure interval|disjoint|ksize
//                        --target-fmax F [--opt-lb X] [--load X] [--s X]
//                        [--availability A]
//   flowsched_cli trace  --instance FILE [--algo <name>] [--out FILE]
//                        [--metrics FILE] [--ndjson] [--seed N]
//   flowsched_cli check-trace --input FILE
//   flowsched_cli maxload [--m N] [--k N] [--s X]
//                         [--strategy overlapping|disjoint|spread|none]
//                         [--seed N] [--transfer]
//   flowsched_cli faultsim [--input FILE] [--algo <name>] [--seed N]
//                          [--mtbf X] [--mean-down X] [--horizon X]
//                          [--recovery immediate|backoff|checkpoint]
//                          [--fates] [--no-audit] [--json]
//   flowsched_cli stream [--requests N] [--lambda X] [--m N] [--keys N]
//                        [--k N] [--zipf-s X]
//                        [--strategy overlapping|disjoint|spread|none]
//                        [--dist constant|exponential|uniform] [--service X]
//                        [--algo <name>] [--seed N] [--reps N] [--threads N]
//                        [--json] [--assert-rss-mb X] [--shards N]
//                        [--shard-workers N] [--heavy-keys N]
//                        [--heavy-weight X]
//
// `run` schedules the instance (from --input or stdin) and prints flow-time
// metrics; `opt` computes the exact offline optimum (unit tasks via
// matching, or the preemptive optimum for arbitrary tasks); `gen` emits a
// key-value-store workload in the instance format; `bounds` evaluates the
// paper's bound landscape without simulating (docs/bounds.md): with --input
// it prints the certified lower bounds for a concrete instance, with --m it
// prints the applicable theorem ratios per structure class, and with
// --target-fmax it answers the capacity-planning question "minimum
// replication factor k for a target p100 flow time" from the closed forms
// plus the LP (15) saturation frontier (exit 3 when infeasible;
// --availability A < 1 folds the fault model in by planning against the
// effective cluster floor(A * m) while the offered load still comes from
// the full cluster); `trace`
// schedules the instance with the observer
// attached and writes a Chrome trace_event JSON (or NDJSON) file plus an
// optional one-line metrics summary (docs/observability.md); `check-trace`
// validates a trace file against docs/trace-format.md; `maxload` solves
// LP (15) — the theoretical maximum cluster load for a popularity
// distribution under a replication scheme (docs/lp.md) — and with
// --transfer also prints the optimal owner-to-server work transfers;
// `faultsim` replays an instance under machine failures (a fault-case file
// with `down`/`recovery` directives, or a plain instance plus a seeded
// --mtbf crash/repair plan), reports attempts / kills / parks / drops, and
// audits the run with the [fault-*] checks (docs/faults.md) — --json swaps
// the text lines for one machine-readable %.17g object, same exit codes;
// `stream` runs the O(backlog)-memory serving pipeline
// (simulate_cluster_streaming, docs/streaming.md) for --reps seeded
// replicate streams fanned across --threads workers — the per-rep reports
// on stdout are byte-identical at any thread count (wall-clock throughput
// and peak RSS go to stderr), and --assert-rss-mb turns the memory bound
// into an exit status for the stream_soak ctest; --shards N routes the
// stream through the sharded multi-dispatcher engine (docs/sharding.md)
// with --shard-workers worker threads — stdout never mentions the shard
// or worker count, so cli_stream_smoke can byte-compare it across both.
// Instance format: see src/io/instance_io.hpp.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bounds/bounds.hpp"
#include "bounds/planner.hpp"
#include "check/audit.hpp"
#include "fault/plan.hpp"
#include "fault/plan_io.hpp"
#include "fault/recovery.hpp"
#include "io/instance_io.hpp"
#include "kvstore/cluster_sim.hpp"
#include "runner/experiment.hpp"
#include "util/args.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "obs/trace_check.hpp"
#include "lp/maxload.hpp"
#include "offline/lower_bounds.hpp"
#include "offline/preemptive_optimal.hpp"
#include "offline/unit_optimal.hpp"
#include "sched/engine.hpp"
#include "sched/composition.hpp"
#include "sched/fifo.hpp"
#include "util/rational.hpp"
#include "workload/generator.hpp"

using namespace flowsched;

namespace {

/// Loads the instance from `path`, or stdin when empty. Callers query the
/// --input / --instance option themselves, so commands that validate their
/// option list can run reject_unknown() before any I/O happens.
Instance read_input(const std::string& path) {
  if (path.empty()) return parse_instance(std::cin);
  return load_instance(path);
}

/// Dispatcher-backed algorithms by CLI name; returns nullptr for the
/// queue-based algorithms (fifo / fifo-eligible / fifo-disjoint), which the
/// callers handle separately, and throws on an unknown name.
std::unique_ptr<Dispatcher> make_dispatcher(const std::string& algo,
                                            std::uint64_t seed) {
  if (algo == "fifo" || algo == "fifo-eligible" || algo == "fifo-disjoint") {
    return nullptr;
  }
  if (algo == "eft-min") return make_eft_min();
  if (algo == "eft-max") return make_eft_max();
  if (algo == "eft-rand") return make_eft_rand(seed);
  if (algo == "random") return std::make_unique<RandomEligibleDispatcher>(seed);
  if (algo == "jsq") return std::make_unique<JsqDispatcher>(TieBreakKind::kMin);
  if (algo == "rr") return std::make_unique<RoundRobinDispatcher>();
  if (algo == "po2") return std::make_unique<PowerOfDChoicesDispatcher>(2, seed);
  throw std::invalid_argument("unknown --algo '" + algo + "'");
}

/// Schedules `inst` with `algo`, narrating to `observer` when non-null.
/// fifo-disjoint has no engine inside, so its run is traced by replaying
/// the finished schedule (replay_schedule).
Schedule run_algo(const Instance& inst, const std::string& algo,
                  std::uint64_t seed, SchedObserver* observer) {
  if (algo == "fifo") return fifo_schedule(inst, TieBreakKind::kMin, 0, observer);
  if (algo == "fifo-eligible") {
    return fifo_eligible_schedule(inst, TieBreakKind::kMin, 0, observer);
  }
  if (algo == "fifo-disjoint") {
    // Theorem 6: independent FIFO per disjoint group (Corollary 1).
    Schedule sched = composed_fifo_schedule(inst);
    if (observer != nullptr) {
      replay_schedule(sched, RunInfo{inst.m(), "FIFO-disjoint", {}}, *observer);
    }
    return sched;
  }
  auto dispatcher = make_dispatcher(algo, seed);
  if (observer != nullptr) return run_dispatcher(inst, *dispatcher, *observer);
  return run_dispatcher(inst, *dispatcher);
}

int cmd_run(const ArgParser& args) {
  // Consume every option and reject typos before touching the input: a
  // misspelled flag must not leave the CLI waiting on stdin.
  const std::string input = args.get("input", "");
  const std::string algo = args.get("algo", "eft-min");
  const std::uint64_t seed = args.uint64("seed", 0);
  const bool want_csv = args.has("csv");
  const bool want_gantt = args.has("gantt");
  args.reject_unknown();
  const auto inst = read_input(input);

  Schedule sched = run_algo(inst, algo, seed, nullptr);

  const auto validation = sched.validate();
  if (!validation.ok()) {
    std::fprintf(stderr, "INVALID SCHEDULE:\n%s", validation.str().c_str());
    return 3;
  }
  if (want_csv) {
    write_schedule_csv(std::cout, sched);
    return 0;
  }
  if (want_gantt) std::printf("%s\n", sched.gantt().c_str());
  std::printf("algo=%s n=%d m=%d structure=%s\n", algo.c_str(), inst.n(),
              inst.m(), inst.structure().most_specific().c_str());
  std::printf("Fmax=%.6g mean_flow=%.6g max_stretch=%.6g makespan=%.6g\n",
              sched.max_flow(), sched.mean_flow(), sched.max_stretch(),
              sched.makespan());
  return 0;
}

int cmd_trace(const ArgParser& args) {
  // --instance is the documented spelling; --input is accepted for symmetry
  // with the other subcommands. Options are all consumed (and typos
  // rejected) before the instance is read, so a misspelled flag cannot
  // leave the CLI waiting on stdin.
  std::string path = args.get("instance", "");
  if (path.empty()) path = args.get("input", "");
  const std::string algo = args.get("algo", "eft-min");
  const std::uint64_t seed = args.uint64("seed", 0);
  const std::string out_path = args.get("out", "trace.json");
  const std::string metrics_path = args.get("metrics", "");
  const bool want_ndjson = args.has("ndjson");
  args.reject_unknown();
  const Instance inst = read_input(path);

  TraceRecorder trace;
  MetricsCollector metrics;
  MulticastObserver observer({&trace, &metrics});
  Schedule sched = run_algo(inst, algo, seed, &observer);

  const auto validation = sched.validate();
  if (!validation.ok()) {
    std::fprintf(stderr, "INVALID SCHEDULE:\n%s", validation.str().c_str());
    return 3;
  }

  const std::string text = want_ndjson ? trace.ndjson() : trace.json();
  // Every trace the CLI writes must satisfy its own spec; failing here is a
  // bug in the recorder, not in the input.
  const auto violations = validate_trace(text);
  if (!violations.empty()) {
    std::fprintf(stderr, "internal error: emitted trace violates spec:\n");
    for (const auto& v : violations) std::fprintf(stderr, "  %s\n", v.c_str());
    return 4;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", out_path.c_str());
    return 2;
  }
  out << text;
  out.close();

  if (!metrics_path.empty()) {
    std::ofstream mout(metrics_path, std::ios::binary);
    if (!mout) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   metrics_path.c_str());
      return 2;
    }
    mout << metrics.to_json() << "\n";
  }

  std::printf("algo=%s n=%d m=%d events=%zu trace=%s%s%s\n", algo.c_str(),
              inst.n(), inst.m(), trace.events(), out_path.c_str(),
              metrics_path.empty() ? "" : " metrics=",
              metrics_path.c_str());
  std::printf("Fmax=%.6g mean_flow=%.6g makespan=%.6g max_backlog=%d\n",
              metrics.max_flow(), metrics.mean_flow(), metrics.makespan(),
              metrics.max_backlog());
  return 0;
}

int cmd_check_trace(const ArgParser& args) {
  const std::string path = args.get("input", "");
  args.reject_unknown();
  if (path.empty()) {
    std::fprintf(stderr, "check-trace needs --input FILE\n");
    return 2;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto violations = validate_trace(buffer.str());
  if (violations.empty()) {
    std::printf("%s: OK\n", path.c_str());
    return 0;
  }
  std::fprintf(stderr, "%s: %zu violation(s)\n", path.c_str(),
               violations.size());
  for (const auto& v : violations) std::fprintf(stderr, "  %s\n", v.c_str());
  return 1;
}

int cmd_opt(const ArgParser& args) {
  const std::string input = args.get("input", "");
  const bool preemptive = args.has("preemptive");
  args.reject_unknown();
  const auto inst = read_input(input);
  if (preemptive) {
    std::printf("preemptive OPT Fmax = %.6g\n", preemptive_optimal_fmax(inst));
    return 0;
  }
  bool integer_releases = true;
  for (const Task& t : inst.tasks()) {
    integer_releases = integer_releases && t.release == std::floor(t.release);
  }
  if (inst.unit_tasks() && integer_releases) {
    std::printf("OPT Fmax = %d (unit tasks, matching oracle)\n",
                unit_optimal_fmax(inst));
    return 0;
  }
  std::fprintf(stderr,
               "exact non-preemptive OPT needs unit tasks with integer "
               "releases (this instance: %s); use --preemptive for the exact "
               "preemptive optimum, or 'bounds' for certified lower bounds\n",
               !inst.unit_tasks() ? "non-unit processing times"
                                  : "fractional release times");
  return 2;
}

int cmd_gen(const ArgParser& args) {
  KvWorkloadConfig config;
  config.m = args.integer("m", 15);
  config.n = args.integer("n", 1000);
  config.k = args.integer("k", 3);
  config.lambda = args.num("lambda", 0.5 * config.m);
  const std::string strategy = args.get("strategy", "overlapping");
  if (strategy == "overlapping") {
    config.strategy = ReplicationStrategy::kOverlapping;
  } else if (strategy == "disjoint") {
    config.strategy = ReplicationStrategy::kDisjoint;
  } else if (strategy == "spread") {
    config.strategy = ReplicationStrategy::kSpread;
  } else if (strategy == "none") {
    config.strategy = ReplicationStrategy::kNone;
    config.k = 1;
  } else {
    std::fprintf(stderr, "unknown --strategy '%s'\n", strategy.c_str());
    return 2;
  }
  const std::uint64_t seed = args.uint64("seed", 1);
  const double s = args.num("s", 1.0);
  args.reject_unknown();
  Rng rng(seed);
  const auto pop = make_popularity(PopularityCase::kShuffled, config.m, s, rng);
  const auto inst = generate_kv_instance(config, pop, rng);
  write_instance(std::cout, inst);
  return 0;
}

int cmd_maxload(const ArgParser& args) {
  const int m = args.integer("m", 15);
  int k = args.integer("k", 3);
  const double s = args.num("s", 1.0);
  const std::string strategy_name = args.get("strategy", "overlapping");
  const std::uint64_t seed = args.uint64("seed", 1);
  const bool want_transfer = args.has("transfer");
  args.reject_unknown();
  if (m < 1 || k < 1 || k > m) {
    std::fprintf(stderr, "need 1 <= k <= m and m >= 1\n");
    return 2;
  }
  ReplicationStrategy strategy;
  if (strategy_name == "overlapping") {
    strategy = ReplicationStrategy::kOverlapping;
  } else if (strategy_name == "disjoint") {
    strategy = ReplicationStrategy::kDisjoint;
  } else if (strategy_name == "spread") {
    strategy = ReplicationStrategy::kSpread;
  } else if (strategy_name == "none") {
    strategy = ReplicationStrategy::kNone;
    k = 1;
  } else {
    std::fprintf(stderr, "unknown --strategy '%s'\n", strategy_name.c_str());
    return 2;
  }
  Rng rng(seed);
  const auto pop = make_popularity(PopularityCase::kShuffled, m, s, rng);
  const auto sets = replica_sets(strategy, k, m);

  std::printf("m=%d k=%d s=%g strategy=%s seed=%llu\n", m, k, s,
              strategy_name.c_str(), static_cast<unsigned long long>(seed));
  std::printf("unreplicated max load: lambda=%.6g (%.2f%% of m)\n",
              max_load_unreplicated(pop), 100.0 * max_load_unreplicated(pop) / m);
  const MaxLoadResult result = max_load_lp(pop, sets);
  std::printf("replicated max load:   lambda=%.6g (%.2f%% of m)\n",
              result.lambda, 100.0 * result.lambda / m);
  if (want_transfer) {
    std::printf("transfer (machine <- owner: work/time at lambda):\n");
    for (int j = 0; j < m; ++j) {
      for (const auto& [i, a] : result.transfer[static_cast<std::size_t>(j)]) {
        if (a > 1e-12) std::printf("  %d <- %d: %.6g\n", i, j, a);
      }
    }
  }
  return 0;
}

int cmd_faultsim(const ArgParser& args) {
  const std::string input = args.get("input", "");
  const std::string algo = args.get("algo", "eft-min");
  const std::uint64_t seed = args.uint64("seed", 1);
  const double mtbf = args.num("mtbf", 16.0);
  const double mean_down = args.num("mean-down", 2.0);
  const double horizon = args.num("horizon", 64.0);
  const std::string recovery_name = args.get("recovery", "");
  const bool want_fates = args.has("fates");
  const bool want_json = args.has("json");
  const bool audit = !args.has("no-audit");
  args.reject_unknown();

  // Read the whole input: a fault-case file carries its own plan and
  // recovery policy; a plain instance gets a seeded random plan.
  std::string text;
  if (input.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream in(input, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open '%s'\n", input.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }

  FaultCase fc = [&]() -> FaultCase {
    if (has_fault_directives(text)) return parse_fault_case(text);
    FaultCase plain{parse_instance_string(text), FaultPlan(1), {}};
    FaultModelConfig fm;
    fm.mean_up = mtbf;
    fm.mean_down = mean_down;
    fm.horizon = horizon;
    Rng rng(seed);
    plain.plan = FaultPlan::random(plain.instance.m(), fm, rng);
    return plain;
  }();
  if (!recovery_name.empty()) {
    fc.recovery.kind = parse_recovery_kind(recovery_name);
  }

  auto dispatcher = make_dispatcher(algo, seed);
  if (dispatcher == nullptr) {
    std::fprintf(stderr,
                 "faultsim drives a Dispatcher; the FIFO simulators have no "
                 "requeue semantics (got --algo %s)\n", algo.c_str());
    return 2;
  }

  AuditConfig acfg;
  acfg.fault_mode = true;
  InvariantAuditor auditor(acfg);
  const OnlineEngine engine = run_dispatcher_faulty(
      fc.instance, *dispatcher, fc.plan, fc.recovery,
      audit ? &auditor : nullptr);
  const FaultLog& log = engine.fault_log();
  const FaultStats& stats = log.stats();

  double fmax = 0, flow_sum = 0;
  int completed = 0;
  for (int i = 0; i < fc.instance.n(); ++i) {
    if (log.fate(i) != TaskFate::kCompleted) continue;
    const double flow =
        log.completion(i) -
        fc.instance.tasks()[static_cast<std::size_t>(i)].release;
    fmax = std::max(fmax, flow);
    flow_sum += flow;
    ++completed;
  }

  bool audit_clean = true;
  if (audit) {
    auditor.check_fault_run(fc.plan, fc.recovery, log);
    audit_clean = auditor.ok();
  }

  if (want_json) {
    // Mirrors `stream --json`: %.17g printf so stdout round-trips doubles
    // exactly and is byte-comparable; diagnostics stay on stderr.
    std::printf("{\n");
    std::printf("  \"algo\": \"%s\", \"n\": %d, \"m\": %d, \"crashes\": %d, "
                "\"recovery\": \"%s\",\n",
                algo.c_str(), fc.instance.n(), fc.instance.m(),
                fc.plan.crash_count(), recovery_kind_name(fc.recovery.kind));
    std::printf("  \"completed\": %lld, \"dropped\": %lld, \"attempts\": %lld,"
                " \"kills\": %lld, \"parked\": %lld, \"wasted\": %.17g,\n",
                stats.completed, stats.dropped, stats.attempts, stats.kills,
                stats.parked, stats.wasted_work);
    std::printf("  \"fmax\": %.17g, \"mean_flow\": %.17g,\n", fmax,
                completed > 0 ? flow_sum / completed : 0.0);
    std::printf("  \"audit\": \"%s\"\n}\n",
                audit ? (audit_clean ? "clean" : "violations") : "skipped");
  } else {
    std::printf("algo=%s n=%d m=%d crashes=%d recovery=%s\n", algo.c_str(),
                fc.instance.n(), fc.instance.m(), fc.plan.crash_count(),
                recovery_kind_name(fc.recovery.kind));
    std::printf("completed=%lld dropped=%lld attempts=%lld kills=%lld "
                "parked=%lld wasted=%.6g\n",
                stats.completed, stats.dropped, stats.attempts, stats.kills,
                stats.parked, stats.wasted_work);
    std::printf("Fmax=%.6g mean_flow=%.6g (over completed tasks)\n", fmax,
                completed > 0 ? flow_sum / completed : 0.0);
    if (want_fates) {
      // One pass over the log; attempts_of(i) per task would be quadratic.
      std::vector<std::size_t> attempt_count(
          static_cast<std::size_t>(fc.instance.n()), 0);
      for (const FaultAttempt& a : log.attempts()) {
        ++attempt_count[static_cast<std::size_t>(a.task)];
      }
      for (int i = 0; i < fc.instance.n(); ++i) {
        const std::size_t attempts =
            attempt_count[static_cast<std::size_t>(i)];
        if (log.fate(i) == TaskFate::kCompleted) {
          std::printf("task %d completed C=%.6g attempts=%zu\n", i,
                      log.completion(i), attempts);
        } else {
          std::printf("task %d dropped attempts=%zu\n", i, attempts);
        }
      }
    }
    if (audit && audit_clean) {
      std::printf("audit: clean (%zu attempts checked)\n",
                  log.attempts().size());
    }
  }
  if (audit && !audit_clean) {
    std::fprintf(stderr, "AUDIT VIOLATIONS:\n%s\n", auditor.report().c_str());
    return 3;
  }
  return 0;
}

/// Peak resident set of this process image, in MiB. Linux carries
/// ru_maxrss over exec, so a run launched from a larger process would
/// report its launcher's size; VmHWM starts afresh with the new image.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int cmd_stream(const ArgParser& args) {
  // Range-check the parsed double before the integer cast: converting an
  // out-of-range double (say 1e20) is undefined behaviour, and a fraction
  // (2.5) would be truncated silently. 1e7 is integral, so it stays valid.
  const double requests_arg = args.num("requests", 100000);
  if (!(requests_arg >= 0 && requests_arg <= std::numeric_limits<int>::max()) ||
      requests_arg != std::floor(requests_arg)) {
    std::fprintf(stderr, "need an integer 0 <= requests <= %d\n",
                 std::numeric_limits<int>::max());
    return 2;
  }
  const auto requests = static_cast<long long>(requests_arg);
  const int m = args.integer("m", 16);
  const int keys = args.integer("keys", 100 * (m > 0 ? m : 1));
  int k = args.integer("k", 3);
  const double zipf_s = args.num("zipf-s", 1.0);
  const double lambda = args.num("lambda", 0.75 * m);
  const double service = args.num("service", 1.0);
  const std::string strategy_name = args.get("strategy", "overlapping");
  const std::string dist_name = args.get("dist", "exponential");
  const std::string algo = args.get("algo", "eft-min");
  const std::uint64_t seed = args.uint64("seed", 1);
  const int reps = args.integer("reps", 1);
  const int threads = args.integer("threads", 1);
  const bool want_json = args.has("json");
  const double assert_rss_mb = args.num("assert-rss-mb", 0.0);
  const int shards = args.integer("shards", 0);  // 0 = single-queue path
  const int shard_workers = args.integer("shard-workers", 0);
  // Weighted mode: requests for keys < --heavy-keys carry --heavy-weight
  // (pure function of the key, so arming it never perturbs the stream or
  // the unweighted report fields; docs/scenarios.md).
  const int heavy_keys = args.integer("heavy-keys", 0);
  const double heavy_weight = args.num("heavy-weight", 8.0);
  args.reject_unknown();

  if (m < 1 || k < 1 || k > m || keys < 1) {
    std::fprintf(stderr, "need 1 <= k <= m, m >= 1, keys >= 1\n");
    return 2;
  }
  if (shards < 0 || shards > m || shard_workers < 0) {
    std::fprintf(stderr, "need 0 <= shards <= m, shard-workers >= 0\n");
    return 2;
  }
  if (reps < 1 || lambda <= 0 || !(service > 0) || !std::isfinite(service)) {
    std::fprintf(stderr, "need reps >= 1, lambda > 0, finite service > 0\n");
    return 2;
  }
  // 0 switches the bound off; NaN or a negative bound must not do so
  // silently.
  if (!(assert_rss_mb >= 0)) {
    std::fprintf(stderr, "need --assert-rss-mb >= 0 (0 = off)\n");
    return 2;
  }
  if (heavy_keys < 0 || heavy_keys > keys || heavy_weight <= 0) {
    std::fprintf(stderr,
                 "need 0 <= heavy-keys <= keys, heavy-weight > 0\n");
    return 2;
  }
  StoreConfig store_config;
  store_config.m = m;
  store_config.keys = keys;
  store_config.zipf_s = zipf_s;
  store_config.k = k;
  if (strategy_name == "overlapping") {
    store_config.strategy = ReplicationStrategy::kOverlapping;
  } else if (strategy_name == "disjoint") {
    store_config.strategy = ReplicationStrategy::kDisjoint;
  } else if (strategy_name == "spread") {
    store_config.strategy = ReplicationStrategy::kSpread;
  } else if (strategy_name == "none") {
    store_config.strategy = ReplicationStrategy::kNone;
    store_config.k = 1;
  } else {
    std::fprintf(stderr, "unknown --strategy '%s'\n", strategy_name.c_str());
    return 2;
  }
  StreamConfig stream_config;
  stream_config.lambda = lambda;
  stream_config.requests = requests;
  stream_config.service_time = service;
  stream_config.heavy_keys = heavy_keys;
  stream_config.heavy_weight = heavy_weight;
  if (dist_name == "constant") {
    stream_config.dist = ServiceDist::kConstant;
  } else if (dist_name == "exponential") {
    stream_config.dist = ServiceDist::kExponential;
  } else if (dist_name == "uniform") {
    stream_config.dist = ServiceDist::kUniform;
  } else {
    std::fprintf(stderr, "unknown --dist '%s'\n", dist_name.c_str());
    return 2;
  }
  // The FIFO simulators are batch-only (they sort the finished instance);
  // probe the name once so a typo fails before any replicate runs.
  if (make_dispatcher(algo, 0) == nullptr) {
    std::fprintf(stderr,
                 "stream drives a Dispatcher; --algo %s is batch-only\n",
                 algo.c_str());
    return 2;
  }

  // One cell (the user seed), --reps seeded replicate streams: the exact
  // runner/experiment.hpp contract, so stdout is byte-identical at any
  // --threads value (bench_determinism_streaming byte-compares it).
  const std::uint64_t experiment = experiment_id("cli_stream");
  const std::uint64_t cell = cell_id({seed});
  ExperimentRunner runner(resolve_threads(threads));
  const std::vector<StreamReport> reports = runner.map<StreamReport>(
      reps, [&](int rep) {
        Rng rng(replicate_seed(experiment, cell,
                               static_cast<std::uint64_t>(rep)));
        KeyValueStore store(store_config, rng);
        if (shards >= 1) {
          // Per-shard dispatcher seeds extend the replicate chain with the
          // shard index, so every (rep, shard) stream is independent while
          // the whole run stays a pure function of --seed.
          ShardedEngine::Options opts;
          opts.shards = shards;
          opts.shard_workers = shard_workers;
          const ShardedEngine::DispatcherFactory factory = [&](int shard) {
            return make_dispatcher(
                algo,
                replicate_seed(experiment,
                               cell_id({seed, static_cast<std::uint64_t>(shard)}),
                               static_cast<std::uint64_t>(rep)));
          };
          return simulate_cluster_streaming_sharded(store, stream_config,
                                                    factory, opts, rng);
        }
        auto dispatcher =
            make_dispatcher(algo, replicate_seed(experiment, cell,
                                                 static_cast<std::uint64_t>(rep)));
        return simulate_cluster_streaming(store, stream_config, *dispatcher,
                                          rng);
      });

  if (want_json) {
    std::printf("[");
    for (int rep = 0; rep < reps; ++rep) {
      const StreamReport& r = reports[static_cast<std::size_t>(rep)];
      std::printf(
          "%s\n  {\"rep\": %d, \"requests\": %d, \"mean_latency\": %.17g, "
          "\"p50\": %.17g, \"p90\": %.17g, \"p99\": %.17g, \"p999\": %.17g, "
          "\"max_latency\": %.17g, \"makespan\": %.17g, "
          "\"quantiles\": \"%s\", \"peak_backlog\": %zu}",
          rep == 0 ? "" : ",", rep, r.sim.requests, r.sim.mean_latency,
          r.sim.p50, r.sim.p90, r.sim.p99, r.p999, r.sim.max_latency,
          r.sim.makespan, r.exact_quantiles ? "exact" : "hist", r.peak_backlog);
    }
    std::printf("\n]\n");
  } else {
    std::printf("stream algo=%s m=%d keys=%d k=%d strategy=%s zipf-s=%g "
                "dist=%s lambda=%g service=%g requests=%lld reps=%d\n",
                algo.c_str(), m, keys, store_config.k, strategy_name.c_str(),
                zipf_s, dist_name.c_str(), lambda, service, requests, reps);
    for (int rep = 0; rep < reps; ++rep) {
      std::printf("rep=%d %s\n", rep,
                  reports[static_cast<std::size_t>(rep)].str().c_str());
    }
  }

  // Wall-clock facts go to stderr: stdout stays byte-comparable.
  for (int rep = 0; rep < reps; ++rep) {
    const StreamReport& r = reports[static_cast<std::size_t>(rep)];
    std::fprintf(stderr, "rep=%d throughput=%.6g req/s engine-memory=%zu B\n",
                 rep, r.requests_per_sec, r.memory_bytes);
  }
  const double rss_mb = peak_rss_mb();
  std::fprintf(stderr, "peak_rss_mb=%.1f\n", rss_mb);
  if (assert_rss_mb > 0 && rss_mb > assert_rss_mb) {
    std::fprintf(stderr,
                 "RSS BOUND VIOLATED: peak %.1f MB > asserted %.1f MB — the "
                 "streaming pipeline is retaining per-request state\n",
                 rss_mb, assert_rss_mb);
    return 4;
  }
  return 0;
}

int cmd_bounds(const ArgParser& args) {
  // Analytic mode (--m given): evaluate the theorem landscape or answer a
  // min-k capacity question from closed forms + LP (15) — no simulation.
  // Legacy mode (no --m): certified lower bounds for a concrete instance.
  const int m = args.integer("m", 0);
  if (m > 0) {
    const int k = args.integer("k", 2);
    const std::string structure_name = args.get("structure", "all");
    const std::string algo_name = args.get("alg", "eft-min");
    const double p = args.num("p", 1000.0);
    const double target = args.num("target-fmax", -1.0);
    const double opt_lb = args.num("opt-lb", 1.0);
    const double load = args.num("load", -1.0);
    const double zipf_s = args.num("s", 0.0);
    const double availability = args.num("availability", 1.0);
    args.reject_unknown();

    const auto alg = bounds::parse_algo_class(algo_name);
    if (!alg) {
      throw std::invalid_argument("unknown --alg '" + algo_name +
                                  "' (eft-min|eft|immediate|online)");
    }

    if (target > 0) {
      // Capacity planning: minimum replication factor for a target p100.
      const auto structure = bounds::parse_structure_class(structure_name);
      if (!structure) {
        throw std::invalid_argument(
            "planner needs --structure interval|disjoint|ksize");
      }
      bounds::PlannerQuery q;
      q.m = m;
      q.structure = *structure;
      q.target_fmax = target;
      q.opt_estimate = opt_lb;
      q.load = load;
      q.zipf_s = zipf_s;
      q.availability = availability;
      const bounds::PlannerResult r = bounds::min_feasible_k(q);
      if (availability < 1.0) {
        std::printf("effective m:       %d (of %d at availability %g)\n",
                    r.effective_m, m, availability);
      }
      std::printf("feasible:          %s\n", r.feasible ? "yes" : "no");
      if (r.feasible) {
        std::printf("min feasible k:    %d\n", r.min_k);
        if (r.min_replicated_k > 0) {
          std::printf("min replicated k:  %d\n", r.min_replicated_k);
        }
      }
      if (r.saturation_k > 0) std::printf("saturation k:      %d\n", r.saturation_k);
      if (r.max_guaranteed_k > 0) {
        std::printf("Cor. 1 guarantee:  k <= %d\n", r.max_guaranteed_k);
      }
      std::printf("binding:           %s\n", r.binding.c_str());
      std::printf("detail:            %s\n", r.detail.c_str());
      return r.feasible ? 0 : 3;
    }

    // Landscape query: one cell, or every structure when --structure all.
    std::vector<bounds::StructureClass> structures;
    if (structure_name == "all") {
      structures = {bounds::StructureClass::kUnrestricted,
                    bounds::StructureClass::kInclusive,
                    bounds::StructureClass::kNested,
                    bounds::StructureClass::kKSize,
                    bounds::StructureClass::kInterval,
                    bounds::StructureClass::kDisjoint};
    } else {
      const auto structure = bounds::parse_structure_class(structure_name);
      if (!structure) {
        throw std::invalid_argument("unknown --structure '" + structure_name + "'");
      }
      structures = {*structure};
    }
    const auto rat = rational_from_double(p);
    const bounds::BoundReport report = bounds::evaluate_grid(
        {m}, {k}, structures, *alg, rat ? *rat : Rational(1000));
    std::fputs(report.render().c_str(), stdout);
    return 0;
  }

  const std::string input = args.get("input", "");
  args.reject_unknown();
  const auto inst = read_input(input);
  std::printf("pmax bound:              %.6g\n", lb_pmax(inst));
  std::printf("volume bound:            %.6g\n", lb_volume(inst));
  std::printf("restricted volume bound: %.6g\n", lb_volume_restricted(inst));
  std::printf("combined lower bound:    %.6g\n", opt_lower_bound(inst));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParser args(argc, argv);
    if (args.command() == "run") return cmd_run(args);
    if (args.command() == "opt") return cmd_opt(args);
    if (args.command() == "gen") return cmd_gen(args);
    if (args.command() == "bounds") return cmd_bounds(args);
    if (args.command() == "trace") return cmd_trace(args);
    if (args.command() == "check-trace") return cmd_check_trace(args);
    if (args.command() == "maxload") return cmd_maxload(args);
    if (args.command() == "faultsim") return cmd_faultsim(args);
    if (args.command() == "stream") return cmd_stream(args);
    std::fprintf(stderr, "unknown command '%s'\n", args.command().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
  std::fprintf(stderr,
               "usage: flowsched_cli run|opt|gen|bounds|trace|check-trace"
               "|maxload|faultsim|stream [--options]\n"
               "see the header of tools/flowsched_cli.cpp\n");
  return 2;
}
