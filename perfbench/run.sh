#!/usr/bin/env bash
# Builds cmd/server, cmd/router and the benchmark from the working tree into
# .bench_build/, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload hot_read --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write stays
# under .bench_build/ (the Go build cache included).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export CGO_ENABLED=0
go build -o "$build/bin/server" ./cmd/server
go build -o "$build/bin/router" ./cmd/router
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --build-dir "$build" "$@"
