#!/usr/bin/env bash
# AddressSanitizer gate for the observability/trace pipeline, the LP
# layer, and the check subsystem: configures an ASan+UBSan build
# (-DFLOWSCHED_SANITIZE=address), builds the CLI, fuzzer, test and fig10
# bench binaries, runs a gen -> trace -> check-trace smoke in both
# encodings plus a parallel fig10 sweep and a differential
# fuzz campaign (auditor + oracles + shrinker under ASan), and runs the
# relevant test suites.
#
# Usage: tools/asan_check.sh [build-dir]   (default: build-asan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build-asan}

cmake -B "$BUILD_DIR" -S . \
  -DFLOWSCHED_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" --target flowsched_cli flowsched_fuzz \
  flowsched_tests bench_fig10_maxload bench_ext_bounds bench_ext_adaptive \
  -j "$(nproc)"

# CLI smoke under ASan: a leak or OOB anywhere in the recorder/validator
# path aborts with a non-zero exit.
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
CLI="$BUILD_DIR/tools/flowsched_cli"
"$CLI" gen --m 6 --k 3 --n 200 --strategy overlapping --seed 7 > "$SMOKE_DIR/inst.txt"
"$CLI" trace --instance "$SMOKE_DIR/inst.txt" --algo eft-min \
  --out "$SMOKE_DIR/trace.json" --metrics "$SMOKE_DIR/metrics.json"
"$CLI" check-trace --input "$SMOKE_DIR/trace.json"
"$CLI" trace --instance "$SMOKE_DIR/inst.txt" --algo fifo-eligible \
  --ndjson --out "$SMOKE_DIR/trace.ndjson"
"$CLI" check-trace --input "$SMOKE_DIR/trace.ndjson"

# LP smoke under ASan: a small parallel Fig. 10 sweep drives the window
# scan across threads and its spot checks drive the Hall ratio (Dinkelbach
# steps over one rescaled Dinic network) and the tableau, plus one CLI
# maxload solve with the transfer extraction.
"$BUILD_DIR/bench/bench_fig10_maxload" --m 10 --permutations 2 --threads 4 \
  > "$SMOKE_DIR/fig10.out"
"$CLI" maxload --m 12 --k 4 --s 1.5 --transfer > "$SMOKE_DIR/maxload.out"

# Fuzzer under ASan: a clean seeded campaign (auditor, offline oracles, LP
# differential) plus an injected-bug campaign so the shrinker and the
# reproducer writer run too (findings expected: exit 1 is the pass).
FUZZ="$BUILD_DIR/tools/flowsched_fuzz"
"$FUZZ" run --seed 11 --runs 60 --threads 4 > "$SMOKE_DIR/fuzz.out"
if "$FUZZ" run --seed 11 --runs 8 --threads 1 --inject-bug \
    --corpus-dir "$SMOKE_DIR/corpus" > "$SMOKE_DIR/fuzz-bug.out"; then
  echo "asan_check: --inject-bug campaign unexpectedly clean" >&2
  exit 1
fi
"$FUZZ" replay --input tests/corpus/prop1-tiebreak.txt > /dev/null

# Streaming pipeline under ASan: the alias tables, the calendar queue's
# grow/drain churn, the slot arena recycling, and the flow histogram's
# on-demand window growth, in both quantile regimes (80k requests crosses
# the 2^16 exact cap), with the stream auditor riding along inside the fuzz
# campaigns above.
"$CLI" stream --requests 30000 --m 16 --lambda 12 --reps 2 --seed 7 \
  > "$SMOKE_DIR/stream.out"
"$CLI" stream --requests 80000 --m 64 --lambda 48 --seed 7 --json \
  > "$SMOKE_DIR/stream.json"

# Fault campaign under ASan: the fault battery on every run (plan
# generation, kill/requeue/park bookkeeping, fault-mode audits) plus the
# committed fault-case reproducers through the replay path.
"$FUZZ" run --seed 13 --runs 24 --threads 4 --fault-every 1 \
  > "$SMOKE_DIR/fuzz-fault.out"
"$FUZZ" replay --input tests/corpus/fault-overlapping.txt > /dev/null
"$CLI" faultsim --input tests/corpus/fault-disjoint.txt > /dev/null

# Non-clairvoyant + weighted batteries under ASan: censored frontiers and
# setup-charge bookkeeping in both engines, the rotate+pad [nc-no-peek]
# counterfactual replays, the weighted Rational aggregation, and the nc
# shrink path via the planted clairvoyance leak (findings expected: exit 1
# is the pass). The committed mode reproducers go through replay too.
"$FUZZ" run --seed 17 --runs 24 --threads 4 --nc-every 1 --weighted-every 1 \
  > "$SMOKE_DIR/fuzz-nc.out"
if "$FUZZ" run --seed 42 --runs 8 --threads 1 --inject-nc-bug \
    --structure nested --fault-every 0 --stream-every 0 --shard-every 0 \
    --corpus-dir "$SMOKE_DIR/nc-corpus" > "$SMOKE_DIR/fuzz-nc-bug.out"; then
  echo "asan_check: --inject-nc-bug campaign unexpectedly clean" >&2
  exit 1
fi
"$FUZZ" replay --input tests/corpus/nc-setup-ties.txt > /dev/null
"$FUZZ" replay --input tests/corpus/weighted-heavy-tail.txt > /dev/null

# Adaptive-control battery under ASan: the closed-loop controller (LP
# oracle in the loop, incremental ring resizes, setup charges, control
# audits) on every run, the planted flap through the control shrink path
# (findings expected: exit 1 is the pass), and the committed control
# reproducer through replay.
"$FUZZ" run --seed 19 --runs 24 --threads 4 --control-every 1 \
  > "$SMOKE_DIR/fuzz-control.out"
if "$FUZZ" run --seed 42 --runs 4 --threads 1 --inject-control-bug \
    --fault-every 0 --stream-every 0 --shard-every 0 --nc-every 0 \
    --weighted-every 0 \
    --corpus-dir "$SMOKE_DIR/control-corpus" \
    > "$SMOKE_DIR/fuzz-control-bug.out"; then
  echo "asan_check: --inject-control-bug campaign unexpectedly clean" >&2
  exit 1
fi
"$FUZZ" replay --input tests/corpus/control-flap.txt > /dev/null

# Adaptive bench under ASan: the paired static-vs-adaptive sweep with
# check_control_run on every replicate must still report a clean audit.
"$BUILD_DIR/bench/bench_ext_adaptive" --reps 2 --requests 300 --threads 4 \
  > "$SMOKE_DIR/adaptive.out"
grep -q 'audit: 0 violation' "$SMOKE_DIR/adaptive.out"

# Weighted streaming under ASan: heavy-key weights through the exact
# weighted-latency aggregation in the cluster sim.
"$CLI" stream --requests 20000 --m 16 --lambda 12 --seed 7 \
  --heavy-keys 8 --heavy-weight 8 > /dev/null

# Bound landscape under ASan: the closed-form evaluator and planner via
# the CLI, and the analytic-vs-simulated overlay (exact unit-task optimum,
# adversary constructions, Rational arithmetic) via bench_ext_bounds —
# which must still report zero bound violations.
"$CLI" bounds --m 16 --k 3 > "$SMOKE_DIR/bounds.out"
"$CLI" bounds --m 256 --structure interval --target-fmax 20 \
  > "$SMOKE_DIR/bounds-plan.out"
"$BUILD_DIR/bench/bench_ext_bounds" --reps 2 --slots 15 --threads 4 \
  > "$SMOKE_DIR/bounds-bench.out"
grep -q 'bound-violations=0' "$SMOKE_DIR/bounds-bench.out"

# Every alternative of the suite filter must select at least one test, so
# that a renamed or deleted suite fails here instead of silently dropping
# out of the run.
SUITES='Obs|Trace|Metrics|OnlineEngine|Fifo|Simplex|MaxLoad|MaxFlow|InvariantAuditor|Shrinker|FaultyEft|StructuredGenerator|FaultPlan|FaultEngine|FaultCore|SweepCheckpoint|Alias|Calendar|Streaming|Sketch|StreamAudit|StealDeque|CoreBudget|Sharded|ReplicationController|AdaptiveSim'
IFS='|' read -ra suite_names <<< "$SUITES"
for suite in "${suite_names[@]}"; do
  if ! ctest --test-dir "$BUILD_DIR" -N -R "$suite" |
      grep -q 'Total Tests: [1-9]'; then
    echo "asan_check: suite filter '$suite' selects no test" >&2
    exit 1
  fi
done
ctest --test-dir "$BUILD_DIR" --output-on-failure -R "$SUITES"
echo "asan_check: OK"
