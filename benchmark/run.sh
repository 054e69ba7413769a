#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark (a Go module of
# its own) into <checkout>/.bench_build with the Go build cache kept there
# too, so nothing is read or written outside the checkout, then runs it with
# the driver's arguments. The benchmark builds cmd/stormd itself.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -root "$root" "$@"
