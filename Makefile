GO ?= go

.PHONY: verify build test race bench fmt vet detvet

# Every go test here passes -timeout 120s: a hang costs two minutes, not go
# test's default ten.

verify:
	sh scripts/verify.sh

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 120s ./...

# race runs the packages with real concurrency under -race with GOMAXPROCS
# oversubscribed; scripts/verify.sh calls this target, so the list lives here.
# internal/mem is on it because patches and plans cross goroutines through
# pools and a waker pre-merges into a blocked peer's space.
# The second line runs the root package's condvar-heavy litmus test 30 times.
# A Wait's handoff wakes a thread that wins the turn at once, so its next
# operation overlaps the waker's tail: the one place two monitor sections
# would run together if either touched monitor state outside enter/leave.
# PR 18's unlocked read of the condvar queue was such a touch and showed once
# in 30-100 runs of this test, hence the count.
# The third line runs the deferred-release deadline tests 30 times: a deferred
# Unlock's ordered half runs on another goroutine while its releaser runs on,
# and these tests force each of the windows that opens (sync.go).
race:
	GOMAXPROCS=4 $(GO) test -timeout 120s -race ./internal/core/ ./internal/mem/ ./internal/slicestore/ ./internal/alloc/ ./internal/kendo/
	GOMAXPROCS=4 $(GO) test -timeout 120s -race -count=30 -run TestRaceDetectLitmusClassification .
	GOMAXPROCS=4 $(GO) test -timeout 120s -race -count=30 -run 'TestDeferredRelease|TestLockTakesOver|TestBackToBackUnlocks|TestAbortWithDeferred|TestUnlockOfUnheldMutex' ./internal/core/

bench:
	$(GO) test -timeout 120s -run xxx -bench . -benchtime 10x .
	$(GO) test -timeout 120s -run xxx -bench ThreadAccess -benchtime 3000000x -cpu 2 ./internal/core/

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# detvet runs the determinism analyzer suite (tools/detvet) over the whole
# module: maporder, wallclock, nativesync and lockcheck per package.
# scripts/verify.sh step 3.
# Incremental: package export data comes from the go build cache.
detvet:
	$(GO) run ./tools/detvet ./...
