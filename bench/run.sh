#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root, passing the benchmark's own flags:
#
#   bash bench/run.sh -seed 42 -reps 5 -out results.json
#   bash bench/run.sh -workload hostbound-3x -seed 1 -seconds 15 -trace 0
#
# The binary and the Go build cache stay in .bench_build/ under the root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
