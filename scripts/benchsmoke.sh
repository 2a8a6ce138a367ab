#!/usr/bin/env sh
# benchsmoke.sh — enforce a recorded benchmark latency baseline.
#
# Usage: benchsmoke.sh <bench-output.txt> [BENCH.md] [BenchmarkName]
#
# Reads the machine-readable baseline marker in BENCH.md
# (`<!-- bench-baseline: <BenchmarkName> ns/op=NNN -->`), takes the median
# <BenchmarkName> ns/op across the -count repetitions in the benchmark
# output, and fails when the median exceeds the baseline by more than 25%.
# The benchmark name defaults to BenchmarkDetectorObserveADOS; CI's
# bench-smoke job also runs the BenchmarkDetectorObserveTiered and
# BenchmarkTrainEpochDaemonShape gates. The raw output is uploaded as a
# workflow artifact either way.
set -eu

OUT=${1:?usage: benchsmoke.sh bench-output.txt [BENCH.md] [BenchmarkName]}
BENCH_MD=${2:-BENCH.md}
NAME=${3:-BenchmarkDetectorObserveADOS}

BASE=$(sed -n "s/.*bench-baseline: $NAME ns\\/op=\\([0-9][0-9]*\\).*/\\1/p" "$BENCH_MD" | head -n1)
if [ -z "$BASE" ]; then
    echo "benchsmoke: no bench-baseline marker for $NAME in $BENCH_MD" >&2
    exit 1
fi

# Count samples before computing the median: a failing command
# substitution under `set -e` would kill the script silently, so the
# no-samples case (typo'd benchmark name, empty output file) must be
# detected explicitly to produce a diagnostic.
SAMPLES=$(awk -v name="$NAME" 'index($1, name) == 1 {n++} END {print n+0}' "$OUT")
if [ "$SAMPLES" -eq 0 ]; then
    echo "benchsmoke: no $NAME samples in $OUT — wrong benchmark name or empty benchmark output" >&2
    exit 1
fi

MEDIAN=$(awk -v name="$NAME" 'index($1, name) == 1 {print $3}' "$OUT" |
    sort -n | awk '{v[NR]=$1} END {printf "%d\n", v[int((NR+1)/2)]}')

LIMIT=$((BASE * 125 / 100))
echo "benchsmoke: $NAME median ${MEDIAN} ns/op, recorded baseline ${BASE} ns/op, limit ${LIMIT} ns/op (+25%)"
if [ "$MEDIAN" -gt "$LIMIT" ]; then
    echo "benchsmoke: FAIL — $NAME latency regressed more than 25% over the BENCH.md baseline" >&2
    exit 1
fi
echo "benchsmoke: OK"
