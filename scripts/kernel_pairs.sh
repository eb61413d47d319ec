#!/usr/bin/env bash
# kernel_pairs.sh — alternating-order kernel timing of a base revision
# against the working tree.
#
#   scripts/kernel_pairs.sh [BASE] [PAIRS]      (default HEAD 5)
#
# Builds the internal/lbm test binary twice — from BASE (a git revision,
# exported with git archive into a temporary directory) and from the
# working tree — then runs PAIRS pairs of BenchmarkFusedStepAoS on one
# CPU, the base first in odd pairs and the working tree first in even
# ones, so drift in the host's speed falls on both sides alike. Prints
# each pair's ms/step with the side that ran first, then the median of
# the working-tree/base ratios. BENCHTIME (default 20x) is the steps
# per run.
#
# Used by `make kernel-pairs`; CI smoke-runs one pair of HEAD against
# itself.
set -euo pipefail

cd "$(dirname "$0")/.."

base="${1:-HEAD}"
pairs="${2:-5}"
benchtime="${BENCHTIME:-20x}"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

mkdir "$work/base"
git archive "$base" | tar -x -C "$work/base"
(cd "$work/base" && go test -c -o "$work/base.test" ./internal/lbm/)
go test -c -o "$work/head.test" ./internal/lbm/

# msPerStep runs one benchmark binary and prints its ms/step.
msPerStep() {
	"$1" -test.run '^$' -test.bench 'FusedStepAoS$' -test.benchtime "$benchtime" -test.cpu 1 |
		awk '$1 == "BenchmarkFusedStepAoS" { printf "%.2f\n", $3 / 1e6 }'
}

echo "base $(git rev-parse --short "$base") against the working tree, $pairs pairs of $benchtime"
printf '%-5s %-6s %10s %10s %7s\n' pair first base_ms head_ms ratio
ratios=()
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		first=base
		b=$(msPerStep "$work/base.test")
		h=$(msPerStep "$work/head.test")
	else
		first=head
		h=$(msPerStep "$work/head.test")
		b=$(msPerStep "$work/base.test")
	fi
	r=$(awk -v h="$h" -v b="$b" 'BEGIN { printf "%.3f", h / b }')
	ratios+=("$r")
	printf '%-5d %-6s %10s %10s %7s\n' "$i" "$first" "$b" "$h" "$r"
done
printf '%s\n' "${ratios[@]}" | sort -g | awk '{ r[NR] = $1 } END {
	m = (NR % 2) ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2
	printf "median head/base ratio: %.3f over %d pairs\n", m, NR
}'
