package core

import (
	"sync/atomic"
	"testing"

	"rfdet/internal/api"
	"rfdet/internal/mem"
	"rfdet/internal/trace"
)

// Lazy writes pend references to the propagated slices' own runs
// (mem.PendingPage): no acquire builds a write plan, and a pended page's
// record may outlive the slices' place in the store.

// TestLazyAcquiresBuildNoPlan: on fft and matmul — no barriers, so no eager
// merge — every acquire pends, and no plan is built.
func TestLazyAcquiresBuildNoPlan(t *testing.T) {
	for _, p := range benchmarkPrograms() {
		if p.name != "fft" && p.name != "matmul" {
			continue
		}
		opts := DefaultOptions()
		opts.PhaseTrace, opts.Validate = true, true
		rep, err := New(opts).Run(p.prog)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if n := rep.Phases.PhaseCounts()[trace.PhasePlanBuild]; n != 0 || rep.Stats.BytesCoalescedAway != 0 {
			t.Errorf("%s: %d plans built, %d bytes coalesced away", p.name, n, rep.Stats.BytesCoalescedAway)
		}
		if rep.Stats.LazyPendingApplied == 0 {
			t.Errorf("%s: nothing was pended", p.name)
		}
	}
}

// TestCollectedSlicesStayPended: a reader acquires a writer's updates to a
// page forty times and never touches the page, so the page's record holds
// references to forty slices' runs; a 64 KiB metadata space collects those
// slices long before the reader's last load flushes the record. The run must
// read exactly as with the default metadata space, which collects nothing.
func TestCollectedSlicesStayPended(t *testing.T) {
	const rounds = 40
	var pendedAtGC, gcs uint64
	prog := func(th api.Thread) {
		hot := th.Malloc(mem.PageSize)
		mu := api.Addr(64)
		id := th.Spawn(func(c api.Thread) {
			for round := 0; round < rounds; round++ {
				c.Lock(mu)
				for i := 0; i < 512; i += 2 { // 256 runs of 8 bytes
					c.Store64(hot+api.Addr(8*i), uint64(round<<16|i))
				}
				c.Unlock(mu)
			}
		})
		self := th.(*thread)
		for round := 0; round < rounds; round++ {
			th.Lock(mu)
			th.Tick(300)
			th.Unlock(mu)
			if n := self.exec.store.GCCount(); n > gcs {
				gcs = n
				if self.space.Pended(mem.PageOf(uint64(hot))) {
					pendedAtGC++
				}
			}
		}
		th.Join(id)
		th.Observe(th.Load64(hot), th.Load64(hot+8*510))
	}
	opts := DefaultOptions()
	opts.Trace = true
	want, wantTrace, err := New(opts).RunTraced(prog)
	if err != nil {
		t.Fatal(err)
	}
	opts.MetadataCapacity = 36409 // GC at 32 KiB
	pendedAtGC, gcs = 0, 0
	got, gotTrace, err := New(opts).RunTraced(prog)
	if err != nil {
		t.Fatal(err)
	}
	if pendedAtGC == 0 {
		t.Fatalf("%d collections, none while the hot page was pended", gcs)
	}
	if got.OutputHash != want.OutputHash || got.VirtualTime != want.VirtualTime || gotTrace.String() != wantTrace.String() {
		t.Fatalf("collecting pended slices changed the run: output %#x vtime %d, default capacity %#x vtime %d (traces equal: %v)",
			got.OutputHash, got.VirtualTime, want.OutputHash, want.VirtualTime, gotTrace.String() == wantTrace.String())
	}
	if obs := got.Observations[0]; obs[0] != (rounds-1)<<16 || obs[1] != (rounds-1)<<16|510 {
		t.Fatalf("observations %#x", obs)
	}
}

// TestStraddlingAtomicUnderLazyWrites: an unaligned AtomicAdd64 across a page
// boundary publishes a micro-slice whose one run straddles two pages, which
// no slice-end diff emits; a lazy acquirer must pend it as one piece per page.
// The joins pend the workers' last increments into the main thread, whose
// load then flushes both pages.
func TestStraddlingAtomicUnderLazyWrites(t *testing.T) {
	const workers, adds = 3, 10
	var pendedPages int
	prog := func(th api.Thread) {
		buf := th.Malloc(3 * mem.PageSize)
		a := (buf+2*mem.PageSize)&^(mem.PageSize-1) - 4
		var ids []api.ThreadID
		for w := 0; w < workers; w++ {
			ids = append(ids, th.Spawn(func(c api.Thread) {
				for i := 0; i < adds; i++ {
					c.AtomicAdd64(a, 1<<32|1)
				}
			}))
		}
		for _, id := range ids {
			th.Join(id)
		}
		pendedPages = len(th.(*thread).space.PendedPages(nil))
		th.Observe(th.Load64(a))
	}
	eager := run(t, Options{}, prog)
	lazy := run(t, DefaultOptions(), prog)
	if pendedPages != 2 {
		t.Fatalf("%d pages pended before the load, want the two the word straddles", pendedPages)
	}
	const want = workers * adds * (1<<32 | 1)
	if lazy.Observations[0][0] != want || eager.Observations[0][0] != want {
		t.Fatalf("straddling counter reads %#x lazily, %#x eagerly, want %#x",
			lazy.Observations[0][0], eager.Observations[0][0], uint64(want))
	}
}

// TestLazyPendThenBarrierDeterministic: threads pend each other's stripes
// lazily through a lock, then meet at a barrier and read every stripe. Each
// arrival flushes its pended pages before it blocks, so the leader merges into
// a space with nothing pended and the others take its clone (Barrier's
// comment). Every thread must read the merged image, and twenty runs must
// agree.
func TestLazyPendThenBarrierDeterministic(t *testing.T) {
	const threads = 4
	var pendedAtBarrier atomic.Int32
	var want []uint64
	for rep := 0; rep < 20; rep++ {
		report := run(t, DefaultOptions(), func(th api.Thread) {
			bar := api.Addr(64)
			l := api.Addr(128)
			arr := th.Malloc(8 * 64)
			body := func(th api.Thread, i int) {
				// Write a private stripe and publish it through the lock; a
				// thread that acquires after another's release pends its stripe.
				for k := 0; k < 16; k++ {
					th.Store64(arr+api.Addr(8*(16*i+k)), uint64(1000*i+k))
				}
				th.Lock(l)
				th.Unlock(l)
				if len(th.(*thread).space.PendedPages(nil)) != 0 {
					pendedAtBarrier.Add(1)
				}
				th.Barrier(bar, threads)
				var sum uint64
				for k := 0; k < 16*threads; k++ {
					sum += th.Load64(arr + api.Addr(8*k))
				}
				th.Observe(sum)
			}
			var ids []api.ThreadID
			for i := 1; i < threads; i++ {
				ids = append(ids, th.Spawn(func(w api.Thread) { body(w, i) }))
			}
			body(th, 0)
			for _, id := range ids {
				th.Join(id)
			}
		})
		var got []uint64
		for tid := 0; tid < threads; tid++ {
			got = append(got, report.Observations[api.ThreadID(tid)]...)
		}
		if len(got) != threads {
			t.Fatalf("rep %d: expected %d observations, got %v", rep, threads, got)
		}
		for i := 1; i < threads; i++ {
			if got[i] != got[0] {
				t.Fatalf("rep %d: thread %d saw sum %d, thread 0 saw %d", rep, i, got[i], got[0])
			}
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rep %d: observations diverged: %v vs %v", rep, got, want)
			}
		}
	}
	if pendedAtBarrier.Load() == 0 {
		t.Fatal("no thread came to the barrier with a pended page")
	}
}
