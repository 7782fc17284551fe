#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
#
# Every build artifact, cache and temporary file stays under
# .bench_build in the working directory, and the Go toolchain is pinned
# to the local one with module downloads disabled, so the build neither
# writes outside the checkout nor reaches the network.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off \
	GOFLAGS=-mod=readonly

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
