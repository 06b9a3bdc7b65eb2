#!/bin/sh
# verify.sh — the repo's full verification gate, run by `make verify` and CI.
#
# Steps, in order of how fast they fail:
#   1. gofmt      — no unformatted files
#   2. go vet     — static checks
#   3. detvet     — the determinism analyzer suite (tools/detvet): maporder,
#                   wallclock, nativesync, lockcheck per package (their
#                   fixtures run in step 5)
#   4. go build   — everything compiles
#   5. go test    — full suite
#   6. race tests — `make race`: the packages with real concurrency, under
#                   -race with GOMAXPROCS oversubscribed (a thread's diff
#                   before enter and its apply after leave only interleave
#                   with a peer's operation when the host preempts), then 30
#                   runs of the litmus classification test (the Makefile says
#                   what they are for)
#   7. replicas   — the KV-server divergence check: k=3 replicas of one
#                   request log, alternating the ambient GOMAXPROCS and 1,
#                   must agree byte-for-byte (rfdet-serve exits 1 on divergence)
#
# Every go test here and in the Makefile passes -timeout 120s: a hung
# execution fails its step after two minutes, not go test's default ten.
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

echo "==> detvet (determinism analyzers)"
make detvet

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test -timeout 120s ./...

echo "==> race tests (GOMAXPROCS=4)"
make race

echo "==> replica divergence check (k=3)"
go run ./cmd/rfdet-serve -size test -threads 4 -replicas 3

echo "verify: OK"
