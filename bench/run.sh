#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given: --workload <name> --seed <n> --seconds <s> --trace <0|1>.
# Build outputs, the Go build cache and the toolchain's telemetry counters
# (it keeps them under the user's configuration directory) stay under
# .bench_build, so nothing outside the checkout is written.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
cd "$root"
go build -C bench -o "$build/cepbench" . >&2
exec "$build/cepbench" "$@"
