#!/usr/bin/env bash
# The benchmark's one command; run.py holds the logic and documents the
# options. From the repository root:
#   bench/e2e/run.sh [--seed N] [--reps N] [--workloads a,b] [--smoke]
#   bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bench/e2e/run.sh --selftest
exec python3 "$(dirname "$0")/run.py" "$@"
