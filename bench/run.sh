#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json "command"): builds the
# bench binary from source into .bench_build/ at the checkout root and
# runs it with the given arguments. Everything the build writes (Go
# build cache, temp files, the binary) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/slipbench" .)
exec "$build/slipbench" -out "$here/out" "$@"
