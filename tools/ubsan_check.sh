#!/usr/bin/env bash
# UndefinedBehaviorSanitizer gate for the fault-injection subsystem:
# configures a standalone UBSan build (-DFLOWSCHED_SANITIZE=undefined plus
# float-cast-overflow, trap-on-error so any report is a hard failure),
# builds the CLI, fuzzer, test and failure-bench binaries, and drives the
# fault paths end to end —
# plan generation and quantization, kill/requeue/park arithmetic in the
# engine (infinities on the dyadic grid are deliberate; UBSan proves the
# boundary comparisons never leave defined territory), backoff jitter
# hashing, checkpoint hexfloat parsing, and the fault-mode auditor.
#
# Usage: tools/ubsan_check.sh [build-dir]   (default: build-ubsan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build-ubsan}

cmake -B "$BUILD_DIR" -S . \
  -DFLOWSCHED_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" --target flowsched_cli flowsched_fuzz \
  flowsched_tests bench_ext_failures bench_ext_bounds -j "$(nproc)"

SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
CLI="$BUILD_DIR/tools/flowsched_cli"
FUZZ="$BUILD_DIR/tools/flowsched_fuzz"

# Fault unit suites plus the runner/checkpoint hardening tests, and the
# record-all observers: the flow histogram's clamped bin casts (Metrics),
# the unit-weight flow term (Weighted) and the auditor's sweeps.
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'FaultPlan|FaultCase|FaultEngine|RunnerHardening|SweepCheckpoint|Alias|Calendar|Streaming|Sketch|StreamAudit|StealDeque|CoreBudget|Sharded|ReplicationController|AdaptiveSim|RingResize|Metrics|Weighted|InvariantAuditor'

# faultsim CLI on the committed corpus cases (scripted plans, both
# replication schemes) and on a seeded random plan per recovery policy.
"$CLI" faultsim --input tests/corpus/fault-overlapping.txt > /dev/null
"$CLI" faultsim --input tests/corpus/fault-disjoint.txt > /dev/null
"$CLI" gen --m 6 --k 3 --n 120 --strategy overlapping --seed 7 \
  > "$SMOKE_DIR/inst.txt"
for recovery in immediate backoff checkpoint; do
  "$CLI" faultsim --input "$SMOKE_DIR/inst.txt" --mtbf 8 --mean-down 2 \
    --horizon 64 --seed 3 --recovery "$recovery" > /dev/null
done

# Fuzz campaign with the fault battery on every run: seeded plans,
# cycling recovery policies, the fault-mode auditor, and (second
# campaign) the downtime-ignoring bug through the shrinker and the
# fault-case reproducer writer (findings expected: exit 1 is the pass).
"$FUZZ" run --seed 11 --runs 60 --threads 4 --fault-every 1 \
  > "$SMOKE_DIR/fuzz.out"
if "$FUZZ" run --seed 42 --runs 8 --threads 1 --inject-fault-bug \
    --fault-every 1 --structure nested --corpus-dir "$SMOKE_DIR/corpus" \
    > "$SMOKE_DIR/fuzz-bug.out"; then
  echo "ubsan_check: --inject-fault-bug campaign unexpectedly clean" >&2
  exit 1
fi
"$FUZZ" replay --input tests/corpus/fault-overlapping.txt > /dev/null
"$FUZZ" replay --input tests/corpus/fault-disjoint.txt > /dev/null

# Streaming pipeline under UBSan: bucket-index arithmetic in the calendar
# queue (floor/int64 casts at the ring boundaries), the alias table's
# uniform-to-index mapping, and the flow histogram's bit-shift bucketing and
# unsigned window arithmetic, across both quantile regimes.
"$CLI" stream --requests 30000 --m 16 --lambda 12 --reps 2 --seed 7 > /dev/null
"$CLI" stream --requests 80000 --m 64 --lambda 48 --seed 7 --json > /dev/null

# Bound landscape under UBSan: Rational arithmetic (128-bit intermediate
# products, shift-built powers of two), the integer level loops, and the
# overlay's exact-optimum matching — zero violations required.
"$CLI" bounds --m 243 --k 3 --structure ksize > /dev/null
"$CLI" bounds --m 256 --structure interval --target-fmax 20 > /dev/null
"$BUILD_DIR/bench/bench_ext_bounds" --reps 2 --slots 15 --threads 4 \
  > "$SMOKE_DIR/bounds-bench.out"
grep -q 'bound-violations=0' "$SMOKE_DIR/bounds-bench.out"

# Non-clairvoyant + weighted batteries under UBSan: setup charges on the
# dyadic grid, censored-load arithmetic, weighted Rational products, and
# the nc shrink path via the planted clairvoyance leak (findings
# expected: exit 1 is the pass). Replay covers the committed reproducers.
"$FUZZ" run --seed 17 --runs 24 --threads 4 --nc-every 1 --weighted-every 1 \
  > "$SMOKE_DIR/fuzz-nc.out"
if "$FUZZ" run --seed 42 --runs 8 --threads 1 --inject-nc-bug \
    --structure nested --no-faults --no-stream --no-shard \
    --corpus-dir "$SMOKE_DIR/nc-corpus" > "$SMOKE_DIR/fuzz-nc-bug.out"; then
  echo "ubsan_check: --inject-nc-bug campaign unexpectedly clean" >&2
  exit 1
fi
"$FUZZ" replay --input tests/corpus/nc-setup-ties.txt > /dev/null
"$FUZZ" replay --input tests/corpus/weighted-heavy-tail.txt > /dev/null
"$CLI" stream --requests 20000 --m 16 --lambda 12 --seed 7 \
  --heavy-keys 8 --heavy-weight 8 > /dev/null

# Adaptive-control battery under UBSan: LP-oracle scoring arithmetic,
# ring-resize index math, epoch/cooldown counters and setup charges on
# the dyadic grid, plus the planted flap through the control shrink path
# (findings expected: exit 1 is the pass) and the committed reproducer.
"$FUZZ" run --seed 19 --runs 24 --threads 4 --control-every 1 \
  > "$SMOKE_DIR/fuzz-control.out"
if "$FUZZ" run --seed 42 --runs 4 --threads 1 --inject-control-bug \
    --no-faults --no-stream --no-shard --no-nc --no-weighted \
    --corpus-dir "$SMOKE_DIR/control-corpus" \
    > "$SMOKE_DIR/fuzz-control-bug.out"; then
  echo "ubsan_check: --inject-control-bug campaign unexpectedly clean" >&2
  exit 1
fi
"$FUZZ" replay --input tests/corpus/control-flap.txt > /dev/null

# Failure sweep: checkpointed, parallel, with the watchdog armed — the
# whole hardened-runner surface in one run.
"$BUILD_DIR/bench/bench_ext_failures" --reps 2 --requests 300 --threads 4 \
  --checkpoint "$SMOKE_DIR/sweep.ckpt" --watchdog 300 > /dev/null

echo "ubsan_check: OK"
