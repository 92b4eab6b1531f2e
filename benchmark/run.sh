#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. The
# driver's command is `bash benchmark/run.sh --workload W --seed N
# --seconds S --trace 0|1`, from the checkout's root; every argument goes
# to the program. Nothing outside the checkout is written: the build cache
# and the binary live under .bench_build, the program's files under
# benchmark/out.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/BENCHMARK.json" ] || [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: run from the root of a full checkout (BENCHMARK.json and go.mod not found in $root)" >&2
	exit 2
fi
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$root/.bench_build"
go build -C "$root/benchmark" -o "$root/.bench_build/benchmark" .
exec "$root/.bench_build/benchmark" "$@"
