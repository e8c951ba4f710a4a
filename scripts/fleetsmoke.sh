#!/usr/bin/env bash
# fleetsmoke.sh — prove one fleet service day is bit-identical across
# worker counts, end to end through cmd/fleetbench.
#
# The fleet engine promises that its JSON report contains simulated
# quantities only and that those are a pure function of the flags —
# never of -parallel, and never of the backend's -shards lock layout.
# The smoke runs a small population (with a short sweep) at -parallel 1
# and -parallel 8 and byte-compares the two reports, then runs the same
# day at -shards 1 and -shards 64 and compares again (dropping only the
# "shards" line, which echoes the flag itself); any diff is a
# determinism regression in the fleet layer or the sharded store's
# claim/resolve protocol. Last, it checks that hostile flags (-bucket
# 1ns, -users -1) are rejected with exit status 2 before anything is
# simulated, instead of crashing or running out of memory.
#
# Usage: scripts/fleetsmoke.sh [users]
set -euo pipefail
cd "$(dirname "$0")/.."

users="${1:-2000}"
a="$(mktemp -t fleet_p1.XXXXXX.json)"
b="$(mktemp -t fleet_p8.XXXXXX.json)"
c="$(mktemp -t fleet_s1.XXXXXX.json)"
d="$(mktemp -t fleet_s64.XXXXXX.json)"
bin="$(mktemp -d -t fleetbench.XXXXXX)"
trap 'rm -rf "${a}" "${b}" "${c}" "${d}" "${bin}"' EXIT

# Built once rather than go run: go run reports any failure as exit 1,
# and the flag checks below need the binary's own exit status.
go build -o "${bin}/fleetbench" ./cmd/fleetbench
fleetbench="${bin}/fleetbench"

"${fleetbench}" -users "${users}" -populations 500,"${users}" \
  -parallel 1 -out "${a}"
"${fleetbench}" -users "${users}" -populations 500,"${users}" \
  -parallel 8 -out "${b}"

if ! cmp -s "${a}" "${b}"; then
  echo "fleetsmoke: fleet day differs between -parallel 1 and -parallel 8" >&2
  diff "${a}" "${b}" | head -40 >&2 || true
  exit 1
fi
echo "fleetsmoke: ${users}-user day bit-identical across worker counts"

"${fleetbench}" -users "${users}" -shards 1 -out "${c}"
"${fleetbench}" -users "${users}" -shards 64 -out "${d}"

if ! cmp -s <(grep -v '"shards"' "${c}") <(grep -v '"shards"' "${d}"); then
  echo "fleetsmoke: fleet day differs between -shards 1 and -shards 64" >&2
  diff "${c}" "${d}" | head -40 >&2 || true
  exit 1
fi
echo "fleetsmoke: ${users}-user day bit-identical across store shard counts"

# A Go panic or out-of-memory crash also exits 2, so a usage error is
# status 2 AND a single "fleetbench: ..." line on stderr.
for flags in "-bucket 1ns" "-users -1"; do
  status=0
  # shellcheck disable=SC2086 # flags are deliberately word-split
  err="$("${fleetbench}" ${flags} -out /dev/null 2>&1 >/dev/null)" || status=$?
  if [ "${status}" -ne 2 ] || [ "$(printf '%s\n' "${err}" | wc -l)" -ne 1 ] ||
    [[ "${err}" != fleetbench:* ]]; then
    echo "fleetsmoke: fleetbench ${flags} exited ${status}, want a usage error (2):" >&2
    printf '%s\n' "${err}" | head -5 >&2
    exit 1
  fi
done
echo "fleetsmoke: hostile flags rejected with exit status 2"
