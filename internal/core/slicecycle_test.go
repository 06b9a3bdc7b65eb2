package core

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"rfdet/internal/api"
	"rfdet/internal/mem"
	"rfdet/internal/slicestore"
	"rfdet/internal/vclock"
)

// The slice lifecycle works in recycled storage and publishes only what a
// slice keeps (DESIGN.md §9.1, §10.2). These tests pin the boundary between
// the two: a published slice never aliases scratch, a cut allocates exactly
// what the slice owns, and the per-sync allocation count stays where the
// diet left it.

// raceBuild reports whether the test binary was built with -race, under
// which sync.Pool drops puts at random and allocation counts do not hold.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// cutThread builds a monitoring thread that can store and cut slices with no
// runtime around it.
func cutThread() *thread {
	th := fakeThread(newTestExec(), 0, vclock.VC{1})
	th.monitoring = true
	th.enableDirtyTracking()
	return th
}

// endSlice is both halves of a slice end, the pre-cut and its commit.
func endSlice(th *thread) *slicestore.Slice {
	th.precut()
	return th.finishSlice()
}

func cloneMods(mods []mem.Run) []mem.Run {
	out := make([]mem.Run, len(mods))
	for i, r := range mods {
		out[i] = mem.Run{Addr: r.Addr, Data: bytes.Clone(r.Data)}
	}
	return out
}

func sameMods(a, b []mem.Run) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Addr != b[i].Addr || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// TestPublishedSliceOwnsItsBytes cuts slice A, then slice B on the same
// thread writing different values to the same addresses, and checks A's
// modification list against a copy taken before B: the store keeps A for the
// whole run, while the staging area A's diff was written into is B's to
// overwrite. Poisoning makes the overwrite happen at the end of A's own cut.
// Two shapes: one page and eight densely written pages.
func TestPublishedSliceOwnsItsBytes(t *testing.T) {
	mem.SetPageBufPoison(true)
	defer mem.SetPageBufPoison(false)
	for _, pages := range []int{1, 8} {
		th := cutThread()
		write := func(v uint64) {
			for p := 0; p < pages; p++ {
				for off := 0; off < mem.PageSize; off += 16 { // 8 written, 8 not: 256 runs a page
					th.Store64(api.Addr(p*mem.PageSize+off), v)
				}
			}
		}
		write(0x1111111111111111)
		a := endSlice(th)
		if a == nil || len(a.Mods) != pages*mem.PageSize/16 || a.Bytes != uint64(pages*mem.PageSize/2) {
			t.Fatalf("%d pages: slice A = %+v, want %d runs of 8 bytes", pages, a, pages*mem.PageSize/16)
		}
		want := cloneMods(a.Mods)
		if want[0].Data[0] != 0x11 {
			t.Fatalf("%d pages: slice A already reads %#x at its cut", pages, want[0].Data[0])
		}
		write(0x2222222222222222)
		b := endSlice(th)
		if !sameMods(a.Mods, want) {
			t.Fatalf("%d pages: cutting slice B changed slice A's bytes: A aliases scratch", pages)
		}
		if b == nil || len(b.Mods) != len(a.Mods) || b.Mods[0].Data[0] != 0x22 {
			t.Fatalf("%d pages: slice B = %+v", pages, b)
		}
		// One payload block: each run's bytes start where the previous run's
		// end, and no run can be appended into the next.
		for i, r := range a.Mods {
			if cap(r.Data) != len(r.Data) {
				t.Fatalf("%d pages: run %d has spare capacity over its neighbour", pages, i)
			}
			if i > 0 {
				prev := a.Mods[i-1].Data
				if unsafe.Pointer(&r.Data[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), len(prev)) {
					t.Fatalf("%d pages: run %d does not follow run %d in one payload block", pages, i, i-1)
				}
			}
		}
		if cap(a.Mods) != len(a.Mods) {
			t.Fatalf("%d pages: Mods kept append slack: len %d cap %d", pages, len(a.Mods), cap(a.Mods))
		}
	}
}

// TestCutBeyondThePageCacheMatchesFullPageDiff: the cut reads every page
// through Space.PageData and only its dirty extents, against snapshots that
// hold only the chunks the slice stored to; the reference diffs each page
// whole (mem.DiffPage) against the test's own copy of it from before the
// slice. Each slice stores to 40 pages, more than the page cache holds and ids
// 0, 16 and 32 in one slot, so most of the cut's lookups miss the cache; the
// cut must equal the reference run for run, and leave the space as it found
// it. The first slice stores all over each page in two passes, the second
// writes one word per page in a chunk that depends on the page; pooled
// buffers are poisoned, so a snapshot chunk no store copied reads 0xDB.
func TestCutBeyondThePageCacheMatchesFullPageDiff(t *testing.T) {
	mem.SetPageBufPoison(true)
	defer mem.SetPageBufPoison(false)
	const pages = 40
	th := cutThread()
	for _, slice := range []struct {
		name  string
		store func()
	}{
		{"dense", func() {
			for round := uint64(1); round <= 2; round++ { // the second pass stores to snapshotted pages
				for p := 0; p < pages; p++ {
					for off := 0; off < mem.PageSize; off += 16 {
						th.Store64(api.Addr(p*mem.PageSize+off), round<<32|uint64(p)<<16|uint64(off))
					}
				}
			}
		}},
		{"sparse", func() {
			for p := 0; p < pages; p++ {
				th.Store64(api.Addr(p*mem.PageSize+p*7%64*mem.ChunkSize+8), 0xFEED<<48|uint64(p))
			}
		}},
	} {
		before := make([][]byte, pages)
		for p := range before {
			before[p] = bytes.Clone(th.space.PageData(mem.PageID(p)))
		}
		slice.store()
		var want []mem.Run
		recorded := th.space.DirtyPages()
		for _, pid := range recorded {
			want = append(want, mem.DiffPage(pid, before[pid], th.space.PageData(pid))...)
		}
		if len(recorded) != pages || len(want) == 0 {
			t.Fatalf("%s: %d pages snapshotted, reference diff of %d runs", slice.name, len(recorded), len(want))
		}
		hash := th.space.Hash()
		got := endSlice(th)
		if got == nil || !sameMods(got.Mods, want) || got.Bytes != mem.RunBytes(want) {
			t.Fatalf("%s: the cut differs from the full-page diff against the pages before the slice (%d runs): %+v", slice.name, len(want), got)
		}
		if th.space.Hash() != hash || !th.space.CacheConsistent() {
			t.Fatalf("%s: the cut changed the space or its page cache", slice.name)
		}
	}
}

// TestWarmCutAllocatesWhatTheSliceOwns: a cut on a thread that has cut
// before allocates the Slice, its clock, its run list and its payload block,
// and nothing else.
func TestWarmCutAllocatesWhatTheSliceOwns(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	th := cutThread()
	var v uint64
	var kept *slicestore.Slice
	cut := func() {
		v++
		for p := 0; p < 3; p++ {
			for off := 0; off < 256; off += 16 {
				th.Store64(api.Addr(p*mem.PageSize+off), v)
			}
		}
		kept = endSlice(th)
	}
	cut()
	if got := testing.AllocsPerRun(50, cut); got != 4 {
		t.Errorf("warm cut allocates %.0f objects, want 4 (Slice, Time, Mods, payload)", got)
	}
	if kept == nil || len(kept.Mods) != 3*16 {
		t.Fatalf("cut produced %+v", kept)
	}
}

// TestWarmEagerApplyAllocatesNothing: applyNow merges two or more slices
// through a pooled write plan, and a warm merge of two slices over the same
// four pages is served from the pools entirely. The plan's Release is what
// hands the plan and its patches back: an apply that drops it allocates a new
// plan, its page map and a patch per page on every call, and fails here. The
// budget of 2 leaves room for a garbage collection emptying the pools
// mid-measurement.
func TestWarmEagerApplyAllocatesNothing(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	slices := make([]*slicestore.Slice, 2)
	for i := range slices {
		var mods []mem.Run
		for p := 0; p < 4; p++ {
			for off := 0; off < 512; off += 64 {
				mods = append(mods, mem.Run{Addr: mem.PageAddr(mem.PageID(p)) + uint64(off+8*i), Data: bytes.Repeat([]byte{byte(i + 1)}, 16)})
			}
		}
		slices[i] = &slicestore.Slice{Mods: mods, Bytes: mem.RunBytes(mods)}
	}
	th := cutThread()
	th.applyNow(slices)
	if got := testing.AllocsPerRun(100, func() { th.applyNow(slices) }); got > 2 {
		t.Errorf("warm two-slice eager apply allocates %.0f objects, want ≤ 2", got)
	}
	want := mem.NewSpace()
	defer want.Release()
	for _, s := range slices {
		want.ApplyRuns(s.Mods)
	}
	if th.space.Hash() != want.Hash() {
		t.Fatal("two-slice eager apply differs from applying the slices in list order")
	}
}

// TestLockPingPongAllocationBudget bounds the whole sync path: two threads,
// N rounds each of Lock; Store64; Unlock; Tick(50) under DefaultOptions. A
// round costs the four allocations its slice owns, one collect result and the
// clock clone of the slice-less cut at Lock: 8.2·N + 72 measured here (1,735–
// 1,739 at N = 200, 3,339–3,342 at N = 400, 72 at N = 0). It read 9.2·N + 72
// (1,938–1,940 and 3,740–3,752) while the prelock pre-merge still cloned the
// lock holder's clock, one clone per contended round, and 27.3·N + 70 at the
// parent of the allocation diet. The budget is 9·N + 50: the prelock clone
// coming back breaks it.
func TestLockPingPongAllocationBudget(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	const n = 200
	prog := func(th api.Thread) {
		cell := th.Malloc(8)
		mu := api.Addr(64)
		body := func(c api.Thread) {
			for i := 0; i < n; i++ {
				c.Lock(mu)
				c.Store64(cell, uint64(i))
				c.Unlock(mu)
				c.Tick(50)
			}
		}
		id := th.Spawn(body)
		body(th)
		th.Join(id)
	}
	rt := New(DefaultOptions())
	run(t, DefaultOptions(), prog) // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := rt.Run(prog); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > 9*n+50 {
		t.Errorf("lock ping-pong of %d rounds allocates %d objects, want ≤ %d", n, got, 9*n+50)
	}
}

// TestPendSliceMatchesSequentialApply: pending overlapping slices — one run
// straddling a page boundary — and flushing leaves memory as applying their
// runs in list order does, pends exactly the pages the runs lie on, and
// charges the per-run bookkeeping time.
func TestPendSliceMatchesSequentialApply(t *testing.T) {
	mkRun := func(a uint64, b ...byte) mem.Run { return mem.Run{Addr: a, Data: b} }
	s1 := &slicestore.Slice{Mods: []mem.Run{
		mkRun(mem.PageAddr(3)+8, 1, 2, 3, 4),
		mkRun(mem.PageAddr(7)+0, 9, 9),
		mkRun(mem.PageAddr(1)+100, 5),
		mkRun(mem.PageAddr(13)-2, 6, 7, 8, 9), // pages 12 and 13
		mkRun(mem.PageAddr(5)+200, 8),
	}}
	s2 := &slicestore.Slice{Mods: []mem.Run{
		mkRun(mem.PageAddr(3)+10, 42, 43), // overlaps s1's page-3 run
		mkRun(mem.PageAddr(9)+16, 11),
		mkRun(mem.PageAddr(1)+100, 77), // overwrites s1's page-1 byte
	}}
	th := &thread{exec: newTestExec(), space: mem.NewSpace(), scratch: new(threadScratch)}
	th.pendSlices([]*slicestore.Slice{s1})
	th.pendSlices([]*slicestore.Slice{s2})
	if want := int64(len(s1.Mods)+len(s2.Mods)) * 4; int64(th.vt) != want {
		t.Fatalf("pend charged %d, want %d", th.vt, want)
	}
	pended := []mem.PageID{1, 3, 5, 7, 9, 12, 13}
	if got := th.space.PendedPages(nil); !slices.Equal(got, pended) {
		t.Fatalf("pages %v pended, want %v", got, pended)
	}
	th.flushAllPending(true)
	want := mem.NewSpace()
	want.ApplyRuns(s1.Mods)
	want.ApplyRuns(s2.Mods)
	if th.space.Hash() != want.Hash() {
		t.Fatal("pended-then-flushed image differs from list-order ApplyRuns")
	}
}

// TestNoPageRecordOutlivesItsThread: a page record holds a pooled snapshot
// buffer from the store that took it to the ResetDirty that ends the slice,
// so a thread that has exited — its last slice cut by exitLocked — has none,
// and neither has a space a barrier replaced (Release retires what it held).
// With mem's TestRecordSnapshotsGoBackToThePool, which shows every retired
// record's buffer going back, that is a Get for every Put at each thread
// exit. The four benchmark programs, under both monitors, with the pools
// poisoned so that a buffer handed back before its diff would also change the
// output the two monitors must agree on.
func TestNoPageRecordOutlivesItsThread(t *testing.T) {
	mem.SetPageBufPoison(true)
	defer mem.SetPageBufPoison(false)
	for _, p := range benchmarkPrograms() {
		var outputs [2]uint64
		for i, monitor := range []Monitor{MonitorCI, MonitorPF} {
			opts := DefaultOptions()
			opts.Monitor = monitor
			// Validate checks every slot at every slice end. Not on kv_server,
			// which fails its list-order check at every commit (bench/README.md,
			// "Known gaps"), nor on water_ns, whose 9,440 operations take it 7 s
			// under -race: their slots are checked at exit.
			opts.Validate = p.name == "fft" || p.name == "matmul"
			var main *thread
			rep, err := New(opts).Run(func(th api.Thread) {
				main = th.(*thread)
				p.prog(th)
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", p.name, monitor, err)
			}
			outputs[i] = rep.OutputHash
			for _, th := range main.exec.threads {
				if n := len(th.space.DirtyPages()); n != 0 || !th.space.CacheConsistent() {
					t.Errorf("%s/%v: thread %d exited with %d page records (%d snapshots taken by the run)",
						p.name, monitor, th.id, n, rep.Stats.StoresWithCopy)
				}
			}
		}
		if outputs[0] != outputs[1] {
			t.Errorf("%s: output %#x under the CI monitor, %#x under PF", p.name, outputs[0], outputs[1])
		}
	}
}

// TestPremergeIntoCachedPagesLooped: a releaser's pre-merge pends its slices
// into every still-queued waiter (§4.5), which revokes the waiter's access to
// pages the waiter has in its page cache — the turn holder writing a provably
// blocked owner's slot (mem.Space.cache). Four threads take one lock forty
// times each, every critical section reading and rewriting a counter on a
// page all of them keep cached and holding the lock long enough for the
// others to queue: a waiter that woke with a slot still saying "read-write"
// would read the counter from before the pre-merge and lose increments.
// make race runs this package, so the hand-over is also checked for a
// happens-before edge.
func TestPremergeIntoCachedPagesLooped(t *testing.T) {
	const workers, rounds = 3, 40
	prog := func(th api.Thread) {
		x := th.Malloc(2 * mem.PageSize)
		mu := api.Addr(64)
		body := func(c api.Thread, me int) {
			own := x + mem.PageSize + api.Addr(8*me)
			for r := 0; r < rounds; r++ {
				c.Lock(mu)
				v := c.Load64(x)
				c.Store64(x, v+1)
				c.Store64(own, c.Load64(own)+v)
				c.Tick(200) // the others reach their Lock and queue
				c.Unlock(mu)
			}
		}
		var ids []api.ThreadID
		for w := 1; w <= workers; w++ {
			w := w
			ids = append(ids, th.Spawn(func(c api.Thread) { body(c, w) }))
		}
		body(th, 0)
		for _, id := range ids {
			th.Join(id)
		}
		var sum uint64
		for me := 0; me <= workers; me++ {
			sum += th.Load64(x + mem.PageSize + api.Addr(8*me))
		}
		th.Observe(th.Load64(x), sum)
	}
	opts := DefaultOptions()
	opts.Validate = true
	var first uint64
	for run := 0; run < 5; run++ {
		rep, err := New(opts).Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		// Each section saw a distinct counter value 0..n-1; their sum says so.
		const n = (workers + 1) * rounds
		if got := rep.Observations[0]; len(got) != 2 || got[0] != n || got[1] != n*(n-1)/2 {
			t.Fatalf("run %d: counter, sum of values seen = %v, want [%d %d]", run, got, n, n*(n-1)/2)
		}
		if s := &rep.Stats; s.PrelockBytes == 0 || s.LazyPendingApplied == 0 || s.SlicesFilteredPremerged == 0 {
			t.Fatalf("run %d: the program did not pre-merge into queued waiters: %d prelock bytes, %d pended runs applied, %d slices filtered as pre-merged",
				run, s.PrelockBytes, s.LazyPendingApplied, s.SlicesFilteredPremerged)
		}
		if run == 0 {
			first = rep.OutputHash
		} else if rep.OutputHash != first {
			t.Fatalf("run %d: output %#x, run 0 %#x", run, rep.OutputHash, first)
		}
	}
}
