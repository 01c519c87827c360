#!/usr/bin/env python3
"""Builds and runs the flowsched end-to-end benchmark (README.md here).

One workload, the form BENCHMARK.json's command takes:
    run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  runs a discarded warm-up rep, then timed reps until S seconds have passed
  (at least 3), each in a fresh process; with --trace 1 it runs one traced
  rep instead. The last stdout line is one JSON object: correct, attempted,
  failed and the end-to-end metrics (--trace 0) or the per-layer metrics
  (--trace 1).

Every workload (the default):
    run.py [--seed N] [--reps N] [--workloads a,b] [--smoke]
  interleaves the reps across workloads, runs one traced rep per workload,
  prints "workload metric value unit" lines for every metric, and writes
  out/result.json.

    run.py --selftest   plants two corruptions; exits 1 when both are caught.
    run.py --baseline   writes baseline.json from two seed-1 sets and a
                        checks-only seed-2 set.

Exits non-zero when any check fails.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
BUILD = OUT / "build"
BINARY = BUILD / "flowsched_e2e"

WORKLOADS = ["stream-ring", "stream-wide", "stream-hot", "shard-ring",
             "batch-audited", "faults-adaptive"]
# The metrics BENCHMARK.json bounds: name -> (unit, statistic over the reps
# of one run). Throughput takes the fastest rep: interference from other
# tenants of a shared host only ever slows a rep down, and the fastest rep
# is the steadiest estimate of the program's own speed. The model-time
# metrics are the same in every rep.
E2E_METRICS = {
    "throughput_rps": ("req/s", max),
    "setup_s": ("s", statistics.median),
    "peak_rss_mb": ("MB", statistics.median),
    "mean_flow": ("model_time", statistics.median),
    "p99_flow": ("model_time", statistics.median),
    "served_frac": ("fraction", statistics.median),
}
# Reported but not bounded: the maximum and the 99.9th percentile of one
# stream vary too much from seed to seed for any bound BENCHMARK.json may set.
UNBOUNDED_METRICS = {"fmax": "model_time", "p999_flow": "model_time"}
MIN_REPS = 3
MAX_REPS = 25
SMOKE_SCALE_DIV = 50
# The warm-up only loads the binary and warms the page cache, so it runs at
# smoke size rather than costing a full rep.
WARMUP_SCALE_DIV = SMOKE_SCALE_DIV


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the Release binary; refuses anything else."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release", *generator],
                   check=True, stdout=sys.stderr)
    cache = (BUILD / "CMakeCache.txt").read_text()
    build_type = next((line.split("=", 1)[1] for line in cache.splitlines()
                       if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        raise SystemExit(f"run.py: {BUILD} is configured as '{build_type}', "
                         "not Release; delete it and re-run")
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)
    info = json.loads(subprocess.run([str(BINARY), "build-info"], check=True,
                                     capture_output=True, text=True).stdout)
    if info["build_type"] != "release":
        raise SystemExit("run.py: the binary was compiled without NDEBUG; "
                         "numbers from it are not comparable")
    return info


def run_rep(workload, seed, scale_div=1, trace=False, plant=None):
    """One rep in a fresh process; returns its parsed JSON line."""
    cmd = [str(BINARY), "run", "--workload", workload, "--seed", str(seed),
           "--scale-div", str(scale_div)]
    if trace:
        cmd += ["--trace", str(OUT / f"trace-{workload}.json")]
    if plant:
        cmd += ["--plant", plant]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run.py: {' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rep_metrics(rep):
    return {
        "throughput_rps": rep["served"] / rep["call_s"],
        "setup_s": rep["setup_s"],
        "peak_rss_mb": rep["rss_mb"],
        "mean_flow": rep["mean_flow"],
        "p99_flow": rep["p99_flow"],
        "served_frac": rep["served"] / rep["requests"],
        "fmax": rep["fmax"],
        "p999_flow": rep["p999_flow"],
    }


class Result:
    """Reps of one workload, their checks and summary."""

    def __init__(self, workload):
        self.workload = workload
        self.reps = []
        self.traced = None
        self.failures = []
        self.failed_requests = 0

    def _check(self, rep, label, reference):
        """Records the rep's failed checks; a report that differs from the
        reference's fails too."""
        before = len(self.failures)
        for check in rep["checks"]:
            if not check["ok"]:
                self.failures.append(f"{label}: {check['name']}: {check['detail']}")
        if reference is not None and rep["report"] != reference["report"]:
            self.failures.append(f"{label}: report differs from rep 0:\n"
                                 f"  {rep['report']}\n  {reference['report']}")
        ok = len(self.failures) == before
        self.failed_requests += rep["dropped"] if ok else rep["requests"]

    def add(self, rep):
        self._check(rep, f"rep {len(self.reps)}", self.reps[0] if self.reps else None)
        self.reps.append(rep)

    def add_traced(self, rep):
        self._check(rep, "traced", self.reps[0])
        self.traced = rep

    def attempted(self):
        reps = self.reps + ([self.traced] if self.traced else [])
        return sum(r["requests"] for r in reps)

    def metrics(self):
        """name -> {value, unit, median, q1, q3, values} over the timed reps;
        value is the reported statistic."""
        out = {}
        units = {name: unit for name, (unit, _) in E2E_METRICS.items()}
        units.update(UNBOUNDED_METRICS)
        for name, unit in units.items():
            values = [rep_metrics(r)[name] for r in self.reps]
            stat = E2E_METRICS[name][1] if name in E2E_METRICS else statistics.median
            q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            out[name] = {"value": stat(values), "unit": unit,
                         "median": statistics.median(values), "q1": q[0],
                         "q3": q[2], "values": values}
        return out


def run_one(args):
    """The single-workload form that BENCHMARK.json's command uses."""
    result = Result(args.workload)
    run_rep(args.workload, args.seed, WARMUP_SCALE_DIV)
    if args.trace:
        # The traced rep times its own untraced calls for the overhead.
        result.add(run_rep(args.workload, args.seed, trace=True))
        metrics = result.reps[0]["layers"]
    else:
        start = time.monotonic()
        while len(result.reps) < MIN_REPS or (
                time.monotonic() - start < args.seconds and
                len(result.reps) < MAX_REPS):
            result.add(run_rep(args.workload, args.seed))
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in result.metrics().items() if name in E2E_METRICS}
    for failure in result.failures:
        log(f"{args.workload}: FAIL {failure}")
    print(json.dumps({"correct": not result.failures,
                      "attempted": result.attempted(),
                      "failed": result.failed_requests, "metrics": metrics}))
    return 0 if not result.failures else 1


def run_set(workloads, seed, reps, scale_div):
    """Warm-up per workload, then reps interleaved across workloads, then
    one traced rep per workload."""
    results = {w: Result(w) for w in workloads}
    for w in workloads:
        run_rep(w, seed, max(scale_div, WARMUP_SCALE_DIV))
    for i in range(reps):
        for w in workloads:
            log(f"rep {i + 1}/{reps} {w}")
            results[w].add(run_rep(w, seed, scale_div))
    for w in workloads:
        log(f"traced {w}")
        results[w].add_traced(run_rep(w, seed, scale_div, trace=True))
    return results


def git_sha():
    try:
        return subprocess.run(["git", "-C", str(HERE), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def provenance(info):
    return {"num_cpus": os.cpu_count(), "machine": platform.machine(),
            "build_type": info["build_type"], "compiler": info["compiler"],
            "git_sha": git_sha()}


def summary(results):
    return {
        w: {"correct": not r.failures, "failures": r.failures,
            "attempted": r.attempted(), "failed": r.failed_requests,
            "report": r.reps[0]["report"], "metrics": r.metrics(),
            "layers": r.traced["layers"], "traced_total_s": r.traced["traced_total_s"],
            "traced_parts_s": r.traced["parts"]}
        for w, r in results.items()}


def print_lines(results):
    for w, r in results.items():
        for name, m in r.metrics().items():
            print(f"{w} {name} {m['value']:.6g} {m['unit']}")
        for name, m in r.traced["layers"].items():
            print(f"{w} {name} {m['value']:.6g} {m['unit']}")
    for w, r in results.items():
        for failure in r.failures:
            print(f"{w} FAIL {failure}")


def run_all(args, info):
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    for w in workloads:
        if w not in WORKLOADS:
            raise SystemExit(f"run.py: unknown workload '{w}'")
    scale_div = SMOKE_SCALE_DIV if args.smoke else 1
    results = run_set(workloads, args.seed, args.reps, scale_div)
    print_lines(results)
    OUT.mkdir(exist_ok=True)
    result = {**provenance(info), "seed": args.seed, "reps": args.reps,
              "scale_div": scale_div, "workloads": summary(results)}
    (OUT / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0 if all(not r.failures for r in results.values()) else 1


def run_selftest():
    """A one-ulp change in a report field and a dropped controller decision,
    each fed through the checks every rep runs; both must be reported."""
    w = "faults-adaptive"
    result = Result(w)
    result.add(run_rep(w, 1, SMOKE_SCALE_DIV))
    result.add(run_rep(w, 1, SMOKE_SCALE_DIV, plant="ulp"))
    result.add(run_rep(w, 1, SMOKE_SCALE_DIV, plant="drop-decision"))
    caught_ulp = any(f.startswith("rep 1: report differs") for f in result.failures)
    caught_drop = any(f.startswith("rep 2: fault-and-control-audit")
                      for f in result.failures)
    for failure in result.failures:
        print(f"{w} FAIL {failure}")
    if caught_ulp and caught_drop:
        print("selftest: both planted corruptions were reported as failures")
        return 1
    print("selftest: a planted corruption went unreported "
          f"(ulp caught: {caught_ulp}, dropped decision caught: {caught_drop})")
    return 3


def run_baseline(args, info):
    """Two full seed-1 sets and a checks-only seed-2 set -> baseline.json."""
    sets = [summary(run_set(WORKLOADS, 1, args.reps, 1)) for _ in range(2)]
    checks_only = run_set(WORKLOADS, 2, 1, 1)
    spread = {
        w: {name: {
            "iqr_over_median": (m["q3"] - m["q1"]) / m["median"],
            "set2_vs_set1": sets[1][w]["metrics"][name]["value"] / m["value"] - 1}
            for name, m in sets[0][w]["metrics"].items()}
        for w in WORKLOADS}
    baseline = {**provenance(info), "seed": 1, "reps": args.reps,
                "sets": sets, "spread": spread,
                "seed2_correct": {w: not r.failures for w, r in checks_only.items()}}
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    ok = all(baseline["seed2_correct"].values()) and all(
        s[w]["correct"] for s in sets for w in WORKLOADS)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload (BENCHMARK.json form)")
    parser.add_argument("--workloads", help="comma-separated subset to run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="time budget for the timed reps of --workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--smoke", action="store_true",
                        help=f"1/{SMOKE_SCALE_DIV} of the request counts")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    try:
        info = build()
    except (OSError, subprocess.CalledProcessError) as e:
        raise SystemExit(f"run.py: build failed: {e}")
    if args.selftest:
        return run_selftest()
    if args.baseline:
        return run_baseline(args, info)
    if args.workload:
        if args.workload not in WORKLOADS:
            raise SystemExit(f"run.py: unknown workload '{args.workload}'")
        return run_one(args)
    return run_all(args, info)


if __name__ == "__main__":
    sys.exit(main())
