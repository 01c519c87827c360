#!/usr/bin/env bash
# Snapshots the google-benchmark micro benches into machine-readable JSON
# trajectory files at the repo root:
#
#   BENCH_micro_sched.json  — scheduler hot-path series + streaming
#                             requests/sec (BM_StreamingThroughput)
#   BENCH_micro_lp.json     — LP (15) solver series (one-shot Hall ratio
#                             over max-flow, tableau baseline, closed-form
#                             window scan)
#   BENCH_micro_stream.json — streaming-engine hot loop + sharded epoch
#                             pipeline across shard counts (docs/sharding.md)
#
# Provenance gate: trajectory numbers from unoptimized binaries are noise
# that poisons every later diff, so this script configures and builds its
# own -DCMAKE_BUILD_TYPE=Release tree, refuses a build dir whose cache says
# anything else, and rejects the output unless the binary stamped itself
# "flowsched_build_type": "release" (an NDEBUG-derived custom context
# field; google-benchmark's own "library_build_type" describes the distro's
# libbenchmark build, which we can only warn about).
#
# Re-run after perf-relevant changes and diff the json (the `real_time` /
# `items_per_second` fields) to track the trajectory; EXPERIMENTS.md quotes
# the headline numbers.
#
# Usage: tools/bench_trajectory.sh [build-dir]   (default: build-release)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build-release}
MIN_TIME=${BENCH_MIN_TIME:-0.05}

# Configure the tree (idempotent) and insist on Release: benchmarks from any
# other build type are not comparable points on the trajectory.
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$BUILD_DIR/CMakeCache.txt")
if [ "$build_type" != "Release" ]; then
  echo "bench_trajectory: $BUILD_DIR is configured as '${build_type:-<empty>}'," >&2
  echo "not Release; refusing to record trajectory numbers from it." >&2
  echo "Pass a fresh directory (default: build-release) instead." >&2
  exit 1
fi
cmake --build "$BUILD_DIR" --target micro_sched micro_lp micro_stream -j "$(nproc)" >/dev/null

for bench in micro_sched micro_lp micro_stream; do
  bin="$BUILD_DIR/bench/$bench"
  echo "== $bench =="
  "$bin" --json "BENCH_$bench.json" --benchmark_min_time="$MIN_TIME"
  if ! grep -q '"flowsched_build_type": "release"' "BENCH_$bench.json"; then
    echo "bench_trajectory: BENCH_$bench.json was recorded from a DEBUG" >&2
    echo "$bench binary — numbers discarded; rebuild Release." >&2
    rm -f "BENCH_$bench.json"
    exit 1
  fi
  if grep -q '"library_build_type": "debug"' "BENCH_$bench.json"; then
    echo "bench_trajectory: WARNING: the system libbenchmark is a debug" >&2
    echo "build (timer overhead only; flowsched code itself is Release)." >&2
  fi
done
# Loud completeness gate: one partial run must never masquerade as a full
# trajectory snapshot.
for bench in micro_sched micro_lp micro_stream; do
  if [ ! -s "BENCH_$bench.json" ]; then
    echo "bench_trajectory: BENCH_$bench.json is missing or empty — the" >&2
    echo "snapshot is incomplete; discard and re-run." >&2
    exit 1
  fi
done
echo "bench_trajectory: wrote BENCH_micro_sched.json BENCH_micro_lp.json BENCH_micro_stream.json (Release)"
