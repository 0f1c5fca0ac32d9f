#!/usr/bin/env bash
# One row of the benchmark trajectory per change. Runs the benchmark suite at
# seed 1, traced so that the per-layer counts are in it, and appends a row to
# BENCH_TRAJECTORY.jsonl: the commit, and per workload the exact virtual-time
# metrics, plan regret and counts, with the host metrics for the record.
# With --check it appends nothing and fails if any exact metric differs from
# the file's last row; a change meant to move one appends its own row first.
#
#   bash scripts/trajectory.sh 'PR 51'   # append a row for the checkout
#   bash scripts/trajectory.sh --check   # compare the checkout with the last row
set -euo pipefail
cd "$(dirname "$0")/.."
label=${1:?usage: trajectory.sh LABEL | --check}
record=$(mktemp)
trap 'rm -f "$record"' EXIT
bash bench/run.sh --mode suite --seed 1 --seconds 3 --trace 1 --out "$record" >/dev/null
if [ "$label" = --check ]; then
	go run scripts/trajectory.go check BENCH_TRAJECTORY.jsonl "$record"
else
	go run scripts/trajectory.go row "$label" "$record" >>BENCH_TRAJECTORY.jsonl
fi
