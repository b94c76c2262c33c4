#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Build outputs and Go's caches stay under
# .bench_build in the checkout unless the caller points them elsewhere;
# the go command's own settings and counters (XDG_CONFIG_HOME) always do.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/go-cache}"
export GOPATH="${GOPATH:-$build/gopath}"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -C benchmark -o "$build/mind-benchmark" .
exec "$build/mind-benchmark" "$@"
