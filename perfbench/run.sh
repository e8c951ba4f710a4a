#!/usr/bin/env bash
# run.sh builds the benchmark driver from source and runs it.
#
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload fig6-campaign --seed 42 --seconds 10 --trace 0
#
# Build outputs (the binary, the Go build cache, temporary files) go
# under ${CARGO_TARGET_DIR:-.bench_build} in the current directory, so
# the benchmark reads and writes nothing outside the checkout besides
# the Go toolchain itself. The build fails, and the script exits
# non-zero without printing a result, when the repository sources the
# driver imports are missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$here" && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
