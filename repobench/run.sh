#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and executes it with the given arguments. Run from the repository
# root:
#
#   bash repobench/run.sh --workload mot32-multicast --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/repobench" && go build -o "$out/repobench" .)
exec "$out/repobench" "$@"
