package core

import (
	"strings"
	"testing"

	"rfdet/internal/api"
	"rfdet/internal/mem"
	"rfdet/internal/slicestore"
	"rfdet/internal/vclock"
	"rfdet/internal/workloads"
)

// fakeThread builds a minimal thread for white-box validator tests.
func fakeThread(e *exec, id int, v vclock.VC) *thread {
	t := &thread{
		exec:  e,
		id:    api.ThreadID(id),
		space: mem.NewSpace(),
		vtime: v,
		wake:  make(chan wakeEvent, 1),

		scratch: new(threadScratch),
	}
	t.proc = e.sched.Register(int32(id), 0)
	return t
}

func newTestExec() *exec {
	return newExec(Options{}, tickChunk)
}

func sliceWith(tid int32, time vclock.VC) *slicestore.Slice {
	return &slicestore.Slice{Tid: tid, Time: time, Mods: []mem.Run{{Addr: 0, Data: []byte{1}}}, Bytes: 1}
}

// TestValidatorCatchesOrderViolation proves the invariant checker is not
// vacuous: a slice list that violates happens-before order is rejected.
func TestValidatorCatchesOrderViolation(t *testing.T) {
	e := newTestExec()
	th := fakeThread(e, 0, vclock.VC{10, 10})
	newer := sliceWith(1, vclock.VC{0, 5})
	older := sliceWith(1, vclock.VC{0, 2}) // happens-before newer, listed after
	th.slicePtrs = []*slicestore.Slice{newer, older}
	e.threads = append(e.threads, th)
	err := e.validateLocked()
	if err == nil || !strings.Contains(err.Error(), "happens-before") {
		t.Fatalf("expected order violation, got %v", err)
	}
}

// TestValidatorCatchesUnseenSlice: a slice the thread provably has not seen
// (its timestamp is not ≤ the thread's clock) must be rejected.
func TestValidatorCatchesUnseenSlice(t *testing.T) {
	e := newTestExec()
	th := fakeThread(e, 0, vclock.VC{3})
	th.slicePtrs = []*slicestore.Slice{sliceWith(1, vclock.VC{0, 9})}
	e.threads = append(e.threads, th)
	err := e.validateLocked()
	if err == nil || !strings.Contains(err.Error(), "not happened-before") {
		t.Fatalf("expected unseen-slice violation, got %v", err)
	}
}

// TestValidatorCatchesOwnComponentRegression: a thread's own slices must
// carry strictly increasing own-clock components.
func TestValidatorCatchesOwnComponentRegression(t *testing.T) {
	e := newTestExec()
	th := fakeThread(e, 0, vclock.VC{10})
	a := sliceWith(0, vclock.VC{4})
	b := sliceWith(0, vclock.VC{4}) // duplicate own component
	th.slicePtrs = []*slicestore.Slice{a, b}
	e.threads = append(e.threads, th)
	err := e.validateLocked()
	if err == nil {
		t.Fatal("expected a validation error for duplicate own components")
	}
}

// TestValidatorAcceptsConsistentState: a well-formed list passes.
func TestValidatorAcceptsConsistentState(t *testing.T) {
	e := newTestExec()
	th := fakeThread(e, 0, vclock.VC{10, 10})
	th.slicePtrs = []*slicestore.Slice{
		sliceWith(1, vclock.VC{0, 2}),
		sliceWith(0, vclock.VC{3, 2}),
		sliceWith(1, vclock.VC{3, 7}),
		sliceWith(0, vclock.VC{9, 7}),
	}
	e.threads = append(e.threads, th)
	if err := e.validateLocked(); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}
}

// TestValidatorCatchesStaleMark: a reader's low-water mark may cover only
// slices the reader has seen; one that covers an unseen slice (what a missed
// forgetMarks leaves behind) must be rejected.
func TestValidatorCatchesStaleMark(t *testing.T) {
	e := newTestExec()
	owner := fakeThread(e, 0, vclock.VC{10, 10})
	reader := fakeThread(e, 1, vclock.VC{3, 1})
	owner.slicePtrs = []*slicestore.Slice{
		sliceWith(0, vclock.VC{2}),
		sliceWith(0, vclock.VC{5}), // reader's clock stops at 3
	}
	e.threads = append(e.threads, owner, reader)
	owner.setMarkFor(reader.id, 1)
	if err := e.validateLocked(); err != nil {
		t.Fatalf("mark over a seen prefix rejected: %v", err)
	}
	owner.setMarkFor(reader.id, 2)
	err := e.validateLocked()
	if err == nil || !strings.Contains(err.Error(), "mark 2") {
		t.Fatalf("expected a stale-mark violation, got %v", err)
	}
	owner.forgetMarks()
	if err := e.validateLocked(); err != nil {
		t.Fatalf("forgotten marks rejected: %v", err)
	}
}

// TestValidatorCatchesCreatorComponentMismatch: a clock that has reached a
// slice's creator component without dominating the slice breaks the property
// collectLocked's filter relies on, and must be reported.
func TestValidatorCatchesCreatorComponentMismatch(t *testing.T) {
	e := newTestExec()
	holder := fakeThread(e, 0, vclock.VC{3, 9})
	reader := fakeThread(e, 1, vclock.VC{0, 4}) // thread 1's component 4, but not thread 0's 3
	holder.slicePtrs = []*slicestore.Slice{sliceWith(1, vclock.VC{3, 4})}
	e.threads = append(e.threads, holder, reader)
	err := e.validateLocked()
	if want := "rfdet: validate: slice [3 4] by thread 1 against thread 1's clock [0 4]: creator component says true, vector clock says false"; err == nil || err.Error() != want {
		t.Fatalf("expected %q, got %v", want, err)
	}
}

// TestValidatorReportsCollectMismatch: a window/full-scan disagreement
// recorded during the run is what validation returns.
func TestValidatorReportsCollectMismatch(t *testing.T) {
	e := newExec(Options{Validate: true}, tickChunk)
	reader := fakeThread(e, 0, vclock.VC{1, 0})
	from := fakeThread(e, 1, vclock.VC{1, 9})
	from.slicePtrs = []*slicestore.Slice{sliceWith(1, vclock.VC{0, 4}), sliceWith(1, vclock.VC{0, 7})}
	e.threads = append(e.threads, reader, from)
	from.setMarkFor(reader.id, 1) // stale: reader has not seen the first slice
	got := reader.collectLocked(from, vclock.VC{0, 9})
	if len(got) != 1 {
		t.Fatalf("window from a stale mark collected %d slices, want 1", len(got))
	}
	err := e.validateLocked()
	if want := "thread 0 collect from 1: window 1.. returned 1 slices, full scan 2"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("expected %q, got %v", want, err)
	}
}

// TestServerLogsUnderValidate runs the KV server under Options.Validate on
// the golden request log and the next 15 logs the benchmark's panel draws
// from it (splitmix64 seeded with DefaultServerSeed). validateLocked reports
// a collection that disagreed with the full-scan reference first, so each
// run must pass, or fail only the repeated-slice check the server programs
// fail under Prelock (DESIGN.md §6, ROADMAP item 7): the window and the
// creator-component
// filter then agree with the full scan on the one workload the benchmark
// does not validate. Under -race, where a run takes 30 times as long, the
// golden log and the first three drawn ones run.
func TestServerLogsUnderValidate(t *testing.T) {
	const known = "twice, at positions"
	seeds := []uint64{workloads.DefaultServerSeed}
	r := workloads.DefaultServerSeed
	for len(seeds) < 16 {
		r += 0x9e3779b97f4a7c15
		z := (r ^ (r >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		seeds = append(seeds, z^(z>>31))
	}
	if raceBuild() {
		seeds = seeds[:4]
	}
	opts := DefaultOptions()
	opts.Validate = true
	for _, seed := range seeds {
		prog := workloads.ServerSeeded(workloads.Config{Threads: 4, Size: workloads.SizeTest}, seed)
		if _, err := New(opts).Run(prog); err != nil && !strings.Contains(err.Error(), known) {
			t.Errorf("seed %#x: %v", seed, err)
		}
	}
}
