#!/usr/bin/env bash
# Builds polyserve and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload kv-read-mostly --seed 1 --seconds 10 --trace 0
#
# Everything it builds, writes or caches stays under .bench_build in the
# checkout root (the directory it must be run from). The go toolchain is
# used offline: the module has no external dependencies.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off
go build -o "$build/bin/polyserve" ./cmd/polyserve >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
