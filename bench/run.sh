#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh -o result.json
#   bash bench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the CPU profiles of traced runs stay
# under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
