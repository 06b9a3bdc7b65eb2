package core

import (
	"testing"

	"rfdet/internal/api"
	"rfdet/internal/mem"
	"rfdet/internal/trace"
)

// Lazy writes pend references to the propagated slices' own runs
// (mem.PendingPage): no acquire builds a write plan, and a pended page's
// record may outlive the slices' place in the store.

// TestLazyAcquiresBuildNoPlan: on fft and matmul — no barriers, so no eager
// merge — every acquire pends, and no plan is built; Validate checks at every
// pend that no page holds PendFold references.
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
		if n := rep.Phases.PhaseCounts()[trace.PhasePlanBuild]; n != 0 || rep.Stats.BytesCoalescedAway != 0 || rep.Stats.PlanReuse != 0 {
			t.Errorf("%s: %d plans built, %d bytes coalesced away, %d reused", p.name, n, rep.Stats.BytesCoalescedAway, rep.Stats.PlanReuse)
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
				if self.pending[mem.PageOf(uint64(hot))] != nil {
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
	opts.MetadataCapacity, opts.GCThresholdPct = 64*1024, 50
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
		if p := th.(*thread).pending; p != nil {
			pendedPages = len(p)
		}
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
