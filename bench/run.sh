#!/usr/bin/env bash
# Builds the benchmark inside the checkout — build cache included, so nothing
# is read or written outside it — and runs it with the given arguments.
# BENCHMARK.json's command; by hand, `go run ./bench` does the same.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/rfdet-bench" ./bench
exec "$build/rfdet-bench" "$@"
