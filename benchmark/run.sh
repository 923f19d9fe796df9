#!/usr/bin/env bash
# Entry point of the benchmark driver (see ../BENCHMARK.json):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark program from source into .bench_build/ at the
# root of the checkout (only the first call compiles) and runs it with
# its data directory there too, so nothing is written outside the
# checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$here" -o "$build/service-benchmark" .
exec "$build/service-benchmark" -tmp "$build/tmp" "$@"
