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
#      inline    — mem.(*Space).Loadable inlines into every thread.Load*
#                   method: a page-cache hit is answered with no call, and an
#                   edit that takes the helper past the inliner's budget fails
#                   here instead of slowing every load; likewise
#                   (*thread).loadTick and storeTick into every thread.Load*
#                   and thread.Store* that ticks (StoreF64 calls Store64);
#                   and mem's (*byteMask).set into (*dirtyPage).mark and
#                   (*Space).markRead, the mark every tracked store and load
#                   pays
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

echo "==> inline check: mem.(*Space).Loadable at every thread.Load*"
inlined=$(go build -gcflags=-m ./internal/core 2>&1 |
	sed -n 's/^\(internal\/core\/[a-z_]*\.go:[0-9]*\):[0-9]*: inlining call to mem\.(\*Space)\.Loadable$/\1/p' | sort -u)
sites=$(grep -n 'Loadable(' internal/core/*.go | grep -v '_test\.go:' | cut -d: -f1,2 | sort -u)
loads=$(grep -c '^func (t \*thread) Load' internal/core/thread.go)
if [ "$inlined" != "$sites" ] || [ "$(echo "$sites" | grep -c .)" -ne "$loads" ]; then
	echo "want one inlined Loadable call in each of the $loads thread.Load* methods" >&2
	echo "call sites: $sites" >&2
	echo "inlined at: $inlined" >&2
	exit 1
fi

echo "==> inline check: (*thread).loadTick and storeTick at every thread.Load* and thread.Store*"
inlined=$(go build -gcflags=-m ./internal/core 2>&1 |
	sed -n 's/^\(internal\/core\/[a-z_]*\.go:[0-9]*\):[0-9]*: inlining call to (\*thread)\.\(load\|store\)Tick$/\1/p' | sort -u)
sites=$(grep -n 't\.\(load\|store\)Tick()' internal/core/*.go | grep -v '_test\.go:' | cut -d: -f1,2 | sort -u)
ticking=$(grep '^func (t \*thread) \(Load\|Store\)' internal/core/thread.go | grep -vc '{ t\.Store')
if [ "$inlined" != "$sites" ] || [ "$(echo "$sites" | grep -c .)" -ne "$ticking" ]; then
	echo "want one inlined loadTick or storeTick call in each of the $ticking ticking thread.Load*/Store* methods" >&2
	echo "call sites: $sites" >&2
	echo "inlined at: $inlined" >&2
	exit 1
fi

echo "==> inline check: (*byteMask).set in (*dirtyPage).mark and (*Space).markRead"
inlined=$(go build -gcflags=-m ./internal/mem 2>&1 |
	sed -n 's/^\(internal\/mem\/[a-z_]*\.go:[0-9]*\):[0-9]*: inlining call to (\*byteMask)\.set$/\1/p' | sort -u)
sites=$(awk '/^func \(d \*dirtyPage\) mark\(|^func \(s \*Space\) markRead\(/ { f = 1 }
	f && /\.set\(/ { print FILENAME ":" FNR }
	/^}/ { f = 0 }' internal/mem/dirty.go internal/mem/reads.go | sort -u)
missing=$(echo "$sites" | grep -vxF "$inlined" || true)
if [ "$(echo "$sites" | grep -c .)" -ne 2 ] || [ -n "$missing" ]; then
	echo "want (*byteMask).set inlined at one call in each of (*dirtyPage).mark and (*Space).markRead" >&2
	echo "call sites: $sites" >&2
	echo "inlined at: $inlined" >&2
	exit 1
fi

echo "==> go test ./..."
go test -timeout 120s ./...

echo "==> race tests (GOMAXPROCS=4)"
make race

echo "==> replica divergence check (k=3)"
go run ./cmd/rfdet-serve -size test -threads 4 -replicas 3

echo "verify: OK"
