#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run it from the root of the checkout:
#
#   bash benchmark/run.sh --workload factor-qr --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the toolchain's config and the binary live under
# .bench_build, and the span and report files under .bench_out, so a run
# reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
[ -f "$build/config/go/telemetry/mode" ] || go telemetry off
(cd "$root/benchmark" && go build -o "$build/luqr-benchmark" .)
exec "$build/luqr-benchmark" "$@"
