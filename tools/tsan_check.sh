#!/usr/bin/env bash
# ThreadSanitizer gate for the runner subsystem: configures a TSan build
# (-DFLOWSCHED_SANITIZE=thread), builds the test binary, the fuzzer and
# the fig10 bench, runs the concurrency-sensitive suites (thread pool,
# experiment determinism, engine, pool threads copying one shared
# ProcSet block), and drives a parallel Fig. 10 max-load
# sweep — the per-k jobs must not share mutable state across threads —
# plus a parallel fuzz campaign (the fuzz workers each
# own dispatchers, auditors and oracle solvers; TSan proves they share
# nothing mutable). The sharded engine's steal path is audited twice: the
# StealDeque/Sharded suites hammer the Chase-Lev deque and the worker
# team directly, and bench_ext_shard + the CLI --shards run drive whole
# epochs through a multi-worker team (docs/sharding.md).
#
# Usage: tools/tsan_check.sh [build-dir]   (default: build-tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build-tsan}

cmake -B "$BUILD_DIR" -S . \
  -DFLOWSCHED_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" --target flowsched_tests flowsched_fuzz \
  flowsched_cli bench_fig10_maxload -j "$(nproc)"
# Every alternative of the suite filter must select at least one test, so
# that a renamed or deleted suite fails here instead of silently dropping
# out of the run.
SUITES='ThreadPool|ExperimentRunner|ReplicateSeed|CellId|ResolveThreads|OnlineEngine|Fuzz\.|RunnerHardening|StealDeque|CoreBudget|Sharded|ProcSetSharing'
IFS='|' read -ra suite_names <<< "$SUITES"
for suite in "${suite_names[@]}"; do
  if ! ctest --test-dir "$BUILD_DIR" -N -R "$suite" |
      grep -q 'Total Tests: [1-9]'; then
    echo "tsan_check: suite filter '$suite' selects no test" >&2
    exit 1
  fi
done
ctest --test-dir "$BUILD_DIR" --output-on-failure -R "$SUITES"
"$BUILD_DIR/bench/bench_fig10_maxload" --m 10 --permutations 2 --threads 4 \
  > /dev/null
"$BUILD_DIR/tools/flowsched_fuzz" run --seed 11 --runs 60 --threads 4 \
  > /dev/null

# Streaming replicates fan across the pool; each worker owns its store,
# dispatcher, engine and sketches — TSan proves the only sharing is the
# result collection in rep order.
"$BUILD_DIR/tools/flowsched_cli" stream --requests 20000 --m 16 --lambda 12 \
  --reps 8 --threads 4 --seed 7 > /dev/null

# Sharded engine under TSan: a small grid with pinned multi-worker teams
# (bench_ext_shard pins shard_workers = S) and the CLI stream routed
# through 4 shards with a 4-worker team — the full
# route -> steal -> execute -> merge pipeline under the race detector.
# The suites repeat: the epoch-boundary straggler races only interleave
# once in a few runs, and a single pass has missed them before.
"$BUILD_DIR/tests/flowsched_tests" \
  --gtest_filter='StealDeque.*:Sharded.*' --gtest_repeat=5 > /dev/null
cmake --build "$BUILD_DIR" --target bench_ext_shard -j "$(nproc)"
"$BUILD_DIR/bench/bench_ext_shard" --requests 20000 --m 64 --reps 1 \
  > /dev/null 2>&1
"$BUILD_DIR/tools/flowsched_cli" stream --requests 10000 --m 16 --k 4 \
  --strategy overlapping --shards 4 --shard-workers 4 --seed 7 > /dev/null

# Fault campaign under TSan: fuzz workers running the fault battery own
# their plans, fault logs and auditors privately, and the checkpointed
# parallel failure sweep exercises the watchdog monitor thread against
# the pool.
cmake --build "$BUILD_DIR" --target bench_ext_failures -j "$(nproc)"
"$BUILD_DIR/tools/flowsched_fuzz" run --seed 13 --runs 24 --threads 4 \
  --fault-every 1 > /dev/null
# Non-clairvoyant + weighted batteries across the pool: each fuzz worker
# owns its NcDispatcher wrappers, counterfactual replay engines and
# weighted aggregates privately, and the sharded stream carries heavy-key
# weights through the route -> steal -> merge pipeline.
"$BUILD_DIR/tools/flowsched_fuzz" run --seed 17 --runs 24 --threads 4 \
  --nc-every 1 --weighted-every 1 > /dev/null
"$BUILD_DIR/tools/flowsched_cli" stream --requests 10000 --m 16 --k 4 \
  --strategy overlapping --shards 4 --shard-workers 4 --heavy-keys 8 \
  --heavy-weight 8 --seed 7 > /dev/null

# Adaptive-control battery across the pool: each fuzz worker owns its
# ReplicationController, ControlLog and LP oracle privately, and the
# paired adaptive bench fans whole controller runs (with bitwise replay
# audits) across 4 threads.
"$BUILD_DIR/tools/flowsched_fuzz" run --seed 19 --runs 24 --threads 4 \
  --control-every 1 > /dev/null
cmake --build "$BUILD_DIR" --target bench_ext_adaptive -j "$(nproc)"
"$BUILD_DIR/bench/bench_ext_adaptive" --reps 2 --requests 300 --threads 4 \
  > /dev/null

TSAN_CKPT=$(mktemp -u)
"$BUILD_DIR/bench/bench_ext_failures" --reps 2 --requests 300 --threads 4 \
  --checkpoint "$TSAN_CKPT" --watchdog 300 > /dev/null
rm -f "$TSAN_CKPT"
echo "tsan_check: OK"
