#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#	bash bench/run.sh -seed 1995
#	bash bench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and every temporary file stay in .bench_build/
# at the root, so a run reads and writes nothing outside the work tree.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C bench build -buildvcs=false -o "$build/atpgbench" .
exec "$build/atpgbench" "$@"
