GO ?= go

.PHONY: verify build test race bench fmt vet detvet

verify:
	sh scripts/verify.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the packages with real concurrency under -race with GOMAXPROCS
# oversubscribed; scripts/verify.sh calls this target, so the list lives here.
# internal/mem is on it because the diff workers write disjoint regions of one
# shared staging buffer and patches and plans cross goroutines through pools.
# The second line is the reproducer of the Wait-handoff race fixed in PR 18
# (cond enqueue after the mutex handoff vs signal's turn-held peek): it showed
# once in 30-100 runs of that test, so the gate runs it 30 times.
race:
	GOMAXPROCS=4 $(GO) test -race ./internal/core/ ./internal/mem/ ./internal/slicestore/ ./internal/alloc/ ./internal/kendo/
	GOMAXPROCS=4 $(GO) test -race -count=30 -run TestRaceDetectLitmusClassification .

bench:
	$(GO) test -run xxx -bench . -benchtime 10x .

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# detvet runs the determinism analyzer suite (tools/detvet) over the whole
# module: maporder, wallclock, nativesync, lockcheck and pincheck per package
# plus the cross-package statwire pass (stats wiring).
# Incremental: package export data comes from the go build cache.
detvet:
	$(GO) run ./tools/detvet ./...
