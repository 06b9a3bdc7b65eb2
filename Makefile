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
race:
	GOMAXPROCS=4 $(GO) test -race ./internal/core/ ./internal/slicestore/ ./internal/alloc/ ./internal/kendo/

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
