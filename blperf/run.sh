#!/usr/bin/env bash
# Builds blserve, blgate, and the blperf benchmark from this checkout
# into .bench_build, then runs blperf with the given arguments, e.g.
#
#   bash blperf/run.sh --workload cold-suite --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache and every other
# file the build or the run writes stay under .bench_build.
set -euo pipefail

build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$build/bin" "$GOTMPDIR"

go build -o "$build/bin/" ./cmd/blserve ./cmd/blgate
(cd blperf && go build -o "$build/bin/blperf" .)
exec "$build/bin/blperf" -work "$build" "$@"
