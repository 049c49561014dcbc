#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash bench/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-json out.json]
#   bash bench/run.sh -compare base.json head.json
#
# Every file the Go toolchain writes (build cache, module cache, settings)
# stays in .bench_build/ at the repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go -C "$root/bench" build -o "$build/mavbench-bench" .
exec "$build/mavbench-bench" "$@"
