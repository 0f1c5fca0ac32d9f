#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ under the current directory (the root of a checkout) and runs
# it with the arguments given. Go's build cache and temporary files are kept
# there too, so nothing is read or written outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
