#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload cold-paper --seed 1 --seconds 20 --trace 0
#
# The last line of stdout is the JSON result; progress goes to stderr.
# Everything the Go toolchain and the benchmark write (build cache,
# temp files, scratch caches, span traces) stays under .bench_build/
# in the checkout root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
  XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
  GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
