#!/usr/bin/env bash
# sweep.sh runs the 576-run identity sweep (TestIdentitySweep in
# internal/core/sweep_test.go) in a parent checkout twice and in this
# checkout once, alternating, and diffs the three outputs (TestSweepDiff).
#
#   scripts/sweep.sh PARENT_DIR [CHANGED]
#
# PARENT_DIR is a copy of the parent commit outside this checkout (git
# archive or git clone); the script drops the sweep test into it. CHANGED
# is empty for the identity check, "lu" when the change may move LU-stepping
# runs by rounding, or a comma-separated list of trace kernels whose runs
# may move (GEQRT,TSQRT,TTQRT,TRSMQR for the QR panel kernels). For a
# refactor that changes how some runs lay out their tasks and factors but
# not what they compute, CHANGED is "layout:" and a comma-separated list of
# run names, the first segment of a run's key or its prefix before a dash
# (layout:luincpiv,hlu,luqr-a2 covers luqr-a2-max100 and luqr-a2-random50):
# a named run fails if its Result or Solve hash moves, its Encoding,
# Factors and Trace moves are listed, and every other run keeps the full
# identity check. The outputs stay in the directory printed at the end.
set -euo pipefail

parent=$(cd "$1" && pwd)
changed=${2:-}
here=$(cd "$(dirname "$0")/.." && pwd)
out=$(mktemp -d)

cp "$here/internal/core/sweep_test.go" "$parent/internal/core/sweep_test.go"
sweep() {
	(cd "$1" && LUQR_SWEEP_OUT="$2" go test -count=1 -timeout 60m -run '^TestIdentitySweep$' ./internal/core)
}
sweep "$parent" "$out/parent1.jsonl"
sweep "$here" "$out/change.jsonl"
sweep "$parent" "$out/parent2.jsonl"

cd "$here"
LUQR_SWEEP_DIFF="$out/parent1.jsonl,$out/parent2.jsonl,$out/change.jsonl" LUQR_SWEEP_CHANGED="$changed" \
	go test -count=1 -v -run '^TestSweepDiff$' ./internal/core
echo "sweep outputs: $out"
