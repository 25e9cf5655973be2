#!/usr/bin/env bash
# Entry point BENCHMARK.json names. Builds the driver from source into
# .bench_build/ of the checkout this script sits in, keeping the Go build
# cache and temporary files there too so nothing is read or written
# outside the checkout, then replaces itself with the binary.
#
#   bash benchmark/run.sh --workload wide_scan --seed 1 --seconds 12 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/corep-benchmark" ./benchmark
exec "$build/corep-benchmark" "$@"
