#!/bin/sh
# verify.sh — the repo's full verification gate, run by `make verify` and CI.
#
# Steps, in order of how fast they fail:
#   1. gofmt      — no unformatted files
#   2. go vet     — static checks
#   3. detvet     — the determinism analyzer suite (tools/detvet), both as a
#                   go vet tool (maporder, wallclock, nativesync, lockcheck,
#                   pincheck per package) and in standalone whole-program
#                   mode, which adds the cross-package statwire pass
#   4. go build   — everything compiles
#   5. go test    — full suite
#   6. race tests — the packages with real concurrency, under -race with
#                   GOMAXPROCS oversubscribed (the off-monitor diff/apply
#                   windows only interleave when the host preempts)
#   7. store sweep— the seed-regression goldens once per commit-monitor
#                   domain count (RFDET_SHARDS) crossed with both metadata
#                   stores (RFDET_EPOCHSTORE): neither the sharded monitor
#                   nor the epoch store may be visible to any deterministic
#                   observable. Plus one iteration of the slice-store churn
#                   benchmark so the map-vs-epoch comparison stays runnable
#   8. replicas   — the KV-server divergence check: k=3 replicas of one
#                   request log across optimization stacks must agree
#                   byte-for-byte (rfdet-serve exits 1 on divergence)
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> detvet (determinism analyzers, go vet mode)"
go build -o bin/detvet ./tools/detvet
go vet -vettool="$(pwd)/bin/detvet" ./...

echo "==> detvet (standalone whole-program mode: + statwire)"
go run ./tools/detvet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> race tests (GOMAXPROCS=4)"
GOMAXPROCS=4 go test -race ./internal/core/ ./internal/slicestore/ ./internal/alloc/ ./internal/kendo/

echo "==> seed goldens per shard count x metadata store"
for shards in 1 4; do
	for epochstore in 0 1; do
		echo "    RFDET_SHARDS=$shards RFDET_EPOCHSTORE=$epochstore"
		RFDET_SHARDS="$shards" RFDET_EPOCHSTORE="$epochstore" go test -count=1 -run 'TestSeedRegressionTraces|TestSeedRegressionShardCounts|TestSeedRegressionServer|TestSeedRegressionEpochStoreMatches' .
	done
done

echo "==> slice-store churn benchmark (1 iteration)"
go test -run=NONE -bench SliceStoreChurn -benchtime=1x ./internal/slicestore/

echo "==> replica divergence check (k=3)"
go run ./cmd/rfdet-serve -size test -threads 4 -replicas 3

echo "verify: OK"
