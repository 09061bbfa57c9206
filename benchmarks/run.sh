#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given flags.
# Everything the build leaves behind goes under .bench_build/ in the root of
# the checkout: the binary, the Go build cache and (when no RAM-backed
# filesystem is available) the WAL directories.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/benchmarks" .)
cd "$root"
exec "$build/benchmarks" "$@"
