#!/bin/sh
# Builds the benchmark inside the checkout and runs it from the checkout's
# root. Everything the build and the run write stays under .bench_build/ and
# bench/out/, both listed in .gitignore.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOFLAGS=-mod=mod
(cd "$root/bench" && go build -o "$build/vsgm-bench" .)
cd "$root"
exec "$build/vsgm-bench" "$@"
