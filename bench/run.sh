#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments from the checkout's root. Everything the build
# writes (Go's build cache included) stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go -C bench build -o "$build/prefbench" .
exec "$build/prefbench" "$@"
