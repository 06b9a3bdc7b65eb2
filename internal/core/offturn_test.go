package core

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"rfdet/internal/api"
	"rfdet/internal/mem"
)

// Memory work the turn does not order runs off it: a slice is diffed before
// WaitForTurn (precut) and committed under it (finishSlice), and an exiting
// thread other than 0 is charged for its pended pages without applying them
// (dropPending). These tests pin both against the values of commit c7be6f0,
// which diffed under the turn and flushed at every exit.

// stableStats hashes Stats without the facts the host decides: wall time, who
// had to wait, and the metadata high-water.
func stableStats(st api.Stats) uint64 {
	st.DiffNanos, st.ApplyNanos, st.TurnWaits, st.MetadataBytes, st.RuntimeMemBytes = 0, 0, 0, 0, 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", st)
	return h.Sum64()
}

// TestExitChargesPendedPagesWithoutApplying: a worker acquires the main
// thread's writes to page A and never reads it, so A is still pended when the
// worker exits; the main thread joins the worker's writes to page B and exits
// without reading B either. The worker's exit charges A as its flush would —
// LazyPendingApplied and the virtual time are the parent's — and applies
// nothing: A is the same page, unwritten and still ProtNone. The main
// thread's exit still flushes B, so the output hash, which folds in its
// memory, is the parent's too.
func TestExitChargesPendedPagesWithoutApplying(t *testing.T) {
	var pageA, pageB mem.PageID
	var worker, main *thread
	var frameA *byte
	var resident, mainPended int
	prog := func(th api.Thread) {
		buf := th.Malloc(3 * mem.PageSize)
		a := (buf + mem.PageSize - 1) &^ (mem.PageSize - 1)
		b := a + mem.PageSize
		pageA, pageB = mem.PageOf(uint64(a)), mem.PageOf(uint64(b))
		mu := api.Addr(64)
		th.Store64(a, 1) // A is resident before the spawn: the worker shares it
		id := th.Spawn(func(c api.Thread) {
			c.Tick(1000) // the main thread's release comes first
			c.Lock(mu)
			for i := 0; i < 32; i++ {
				c.Store64(b+api.Addr(16*i), uint64(i+1))
			}
			c.Unlock(mu)
			if w := c.(*thread); w.pending[pageA] != nil {
				worker, frameA, resident = w, &w.space.PageData(pageA)[0], w.space.PageCount()
			}
		})
		th.Lock(mu)
		for i := 0; i < 32; i++ {
			th.Store64(a+api.Addr(16*i), uint64(100+i))
		}
		th.Unlock(mu)
		th.Join(id)
		main = th.(*thread)
		if main.pending[pageB] != nil {
			mainPended++
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		worker, main, mainPended = nil, nil, 0
		rep := run(t, DefaultOptions(), prog)
		if worker == nil || mainPended == 0 {
			t.Fatalf("P=%d: page A pended at the worker's exit: %v; page B at the main thread's: %v", procs, worker != nil, mainPended > 0)
		}
		if len(worker.pending) != 0 || worker.space.ProtectionOf(pageA) != mem.ProtNone {
			t.Errorf("P=%d: the worker exited with %d pended pages and page A %v, want none and ProtNone",
				procs, len(worker.pending), worker.space.ProtectionOf(pageA))
		}
		if data := worker.space.PageData(pageA); &data[0] != frameA || worker.space.PageCount() != resident || data[16] != 0 {
			t.Errorf("P=%d: the worker's exit wrote page A", procs)
		}
		if len(main.pending) != 0 || main.space.ProtectionOf(pageB) != mem.ProtRW {
			t.Errorf("P=%d: the main thread exited with %d pended pages and page B %v", procs, len(main.pending), main.space.ProtectionOf(pageB))
		}
		st := rep.Stats
		if st.LazyPendingApplied != 64 || rep.VirtualTime != 25087 || rep.OutputHash != 0x82b106a53cbef01 || stableStats(st) != 0x217b7ea970fa4935 {
			t.Errorf("P=%d: %d pended runs charged, vtime %d, output %#x, stats %#x; parent 64, 25087, 0x82b106a53cbef01, 0x217b7ea970fa4935",
				procs, st.LazyPendingApplied, rep.VirtualTime, rep.OutputHash, stableStats(st))
		}
	}
}

// TestDiscardedPrecutLeavesTheSliceAsItWas: a worker re-locks the mutex it
// last released, with a write in between, so slice merging continues the
// slice across the Lock, and the pre-cut the Lock took before its turn — which
// saw that write — is never committed. The slice the next Unlock commits holds
// that write as last stored, after the re-lock, beside the write made after
// it, and every Stats field reads the parent's. With the race detector off and
// on, at GOMAXPROCS 1 and 4.
func TestDiscardedPrecutLeavesTheSliceAsItWas(t *testing.T) {
	var x api.Addr
	var worker *thread
	prog := func(th api.Thread) {
		buf := th.Malloc(2 * mem.PageSize)
		x = (buf + mem.PageSize - 1) &^ (mem.PageSize - 1)
		mu := api.Addr(64)
		id := th.Spawn(func(c api.Thread) {
			worker = c.(*thread)
			c.Lock(mu)
			c.Store64(x+128, 1)
			c.Unlock(mu)
			c.Store64(x, 2)
			c.Lock(mu) // the last release was ours: the slice goes on
			c.Store64(x+64, 3)
			c.Store64(x, 4)
			c.Unlock(mu)
		})
		th.Join(id)
		th.Observe(th.Load64(x), th.Load64(x+64), th.Load64(x+128))
	}
	pins := []struct {
		race          bool
		vtime, output uint64
		stats         uint64
	}{
		{false, 23216, 0xf6d0695bf92a7609, 0x4f42fba71948c6ba},
		{true, 23216, 0xf6d0695bf92a7609, 0x700590b82d1cedf},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, pin := range pins {
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			opts := DefaultOptions()
			opts.RaceDetect = pin.race
			rep := run(t, opts, prog)
			if worker.st.SlicesMerged != 1 {
				t.Fatalf("race=%v P=%d: %d slices merged, want the re-lock's", pin.race, procs, worker.st.SlicesMerged)
			}
			last := worker.slicePtrs[len(worker.slicePtrs)-1]
			want := []mem.Run{{Addr: uint64(x), Data: []byte{4}}, {Addr: uint64(x + 64), Data: []byte{3}}}
			if last.Tid != int32(worker.id) || !sameMods(last.Mods, want) {
				t.Errorf("race=%v P=%d: the merged slice is %+v, want %v", pin.race, procs, last, want)
			}
			if obs := rep.Observations[0]; len(obs) != 3 || obs[0] != 4 || obs[1] != 3 || obs[2] != 1 {
				t.Errorf("race=%v P=%d: observations %v", pin.race, procs, obs)
			}
			if rep.VirtualTime != pin.vtime || rep.OutputHash != pin.output || stableStats(rep.Stats) != pin.stats {
				t.Errorf("race=%v P=%d: vtime %d, output %#x, stats %#x; parent %d, %#x, %#x\n%+v",
					pin.race, procs, rep.VirtualTime, rep.OutputHash, stableStats(rep.Stats), pin.vtime, pin.output, pin.stats, rep.Stats)
			}
		}
	}
}
