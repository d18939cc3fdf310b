#!/usr/bin/env bash
# Builds the benchmark, nsgserve and nsgrouter from this checkout's source
# into .bench_build/bin, then runs the benchmark with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload lib-search --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
export GOMODCACHE="$out/gomod"

(cd "$root/perfbench" && go build -o "$out/bin/" . repro/cmd/nsgserve repro/cmd/nsgrouter)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
