#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given (the command of BENCHMARK.json). Everything the build
# writes — binary, compiler cache — stays under .bench_build/ at the root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$here" -o "$build/pcpm-benchmark" .
exec "$build/pcpm-benchmark" -out "$here/out" "$@"
