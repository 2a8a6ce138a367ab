#!/bin/sh
# Builds aovlisd and the benchmark from this checkout into .bench_build/
# and runs one benchmark invocation; arguments pass through, e.g.
#   bash aovbench/run.sh --workload ws-flash --seed 1 --seconds 16 --trace 0
# Everything it writes stays under .bench_build/ in the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build/aovbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
unset AOVLIS_FASTMATH AOVLIS_NOSIMD
cd "$root/aovbench"
go build -o "$out/aovlisd" ../cmd/aovlisd
go build -o "$out/aovbench" .
cd "$root"
exec "$out/aovbench" --daemon "$out/aovlisd" --work "$out" "$@"
