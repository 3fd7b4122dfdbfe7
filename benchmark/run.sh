#!/usr/bin/env bash
# Builds the benchmark from source and runs it; this is the command
# BENCHMARK.json names. Run it from the root of a checkout:
#
#   bash benchmark/run.sh                         # all six workloads, full report
#   bash benchmark/run.sh --workload lj_dense --seed 3 --seconds 12 --trace 0
#   bash benchmark/run.sh -compare a.json b.json
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, temporary files and the binary go to .bench_build/, results
# to benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"

# Go's caches, temp files and its telemetry counters (under the user config
# dir) all go to .bench_build/; nothing is fetched.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# The module in benchmark/ replaces tofumd with the enclosing checkout, so
# this fails (and the script exits non-zero) where the simulator is absent.
go build -C "$here" -o "$build/tofubench" .
exec "$build/tofubench" "$@"
