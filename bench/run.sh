#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the
# checkout, build cache included) and runs it with the given arguments.
# Run from the repository root: bash bench/run.sh --workload tcp-open ...
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C "$(dirname "$0")" -o "$build/regbench" .
# A first build leaves ~100 MB of dirty pages; flush them now, not while
# the first runs in a fresh checkout are being measured.
sync
exec "$build/regbench" "$@"
