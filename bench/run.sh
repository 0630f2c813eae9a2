#!/usr/bin/env bash
# Launcher named by BENCHMARK.json: builds the benchmark from source inside
# the checkout and runs it with the arguments given. Everything the build
# writes (binary, Go build cache, span dumps) stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=-modcacherw
(cd "$here" && go build -o "$out/retrobench" .)
exec "$out/retrobench" "$@"
