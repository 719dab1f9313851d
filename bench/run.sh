#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Everything
# the build and the run write (Go build cache, binary, scratch databases,
# traces, run records) stays under <checkout>/.bench_build.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/apollo-bench" .)
cd "$root"
exec "$out/apollo-bench" "$@"
