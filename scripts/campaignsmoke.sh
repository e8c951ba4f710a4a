#!/usr/bin/env bash
# campaignsmoke.sh — prove the repeated campaign layers are
# bit-identical across worker counts, end to end through
# cmd/cloudbench.
#
# Every repeated layer (Fig. 6 matrix, loss sweep) runs on one
# StopRule-driven engine whose output — including, under a precision
# target, how many repetitions each cell spends — is a pure function
# of the flags, never of -parallel. The smoke runs a fixed-rep Fig. 6
# matrix, an adaptive antithetic one and an adaptive CRN loss sweep at
# -parallel 1 and -parallel 4 and byte-compares stdout; any diff is a
# determinism regression in the scheduler or the stopping engine.
#
# Usage: scripts/campaignsmoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d -t campaignsmoke.XXXXXX)"
trap 'rm -rf "${tmp}"' EXIT
go build -o "${tmp}/cloudbench" ./cmd/cloudbench

check() {
  local name="$1"
  shift
  "${tmp}/cloudbench" "$@" -parallel 1 >"${tmp}/p1.txt"
  "${tmp}/cloudbench" "$@" -parallel 4 >"${tmp}/p4.txt"
  if ! cmp -s "${tmp}/p1.txt" "${tmp}/p4.txt"; then
    echo "campaignsmoke: ${name} differs between -parallel 1 and -parallel 4" >&2
    diff "${tmp}/p1.txt" "${tmp}/p4.txt" | head -40 >&2 || true
    exit 1
  fi
  echo "campaignsmoke: ${name} bit-identical across worker counts"
}

check "fixed fig6" -experiment fig6 -reps 2
check "adaptive antithetic fig6" -experiment fig6 -precision 0.2 -min-reps 4 -max-reps 8 -antithetic
check "adaptive CRN loss sweep" -loss 0.02 -precision 0.2 -min-reps 4 -max-reps 8 -crn
