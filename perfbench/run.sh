#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with
# the given arguments, e.g.:
#
#   bash perfbench/run.sh --workload lifecycle --seed 1 --seconds 55 --trace 0
#
# It runs from the repository root whatever the caller's directory.
# Everything it builds or writes stays under .bench_build; it needs no
# network.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
