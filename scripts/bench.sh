#!/usr/bin/env bash
# bench.sh — emit a BENCH_<sha>.json campaign snapshot.
#
# The snapshot is the cmd/comparebench campaign file for the paper's
# Twente vantage at 4 repetitions, seed 42: Fig. 6 results for every
# service plus the idle and lossy sections. Its simulated metrics are
# deterministic given the seed, so scripts/trendcheck.sh gates on any
# drift from the newest committed snapshot. Engine speed is measured
# by perfbench (perfbench/run.sh), not here.
#
#   scripts/bench.sh                       # writes BENCH_<sha>.json
#   comparebench -a BENCH_old.json -b BENCH_new.json
#
# Usage: scripts/bench.sh [out.json]
set -euo pipefail
cd "$(dirname "$0")/.."

sha="$(git rev-parse --short HEAD 2>/dev/null || echo dev)"
out="${1:-BENCH_${sha}.json}"

go run ./cmd/comparebench -run -from twente -reps 4 -seed 42 -out "${out}"
echo "wrote ${out}"
