package core

import (
	"testing"

	"rfdet/internal/api"
)

// hintProg stresses the §5.4 pathology: non-communicating compute threads
// never acquire, so their stale vector clocks pin every other thread's
// slices in the metadata space — unless the eager-collection hint excludes
// them from the GC frontier.
func hintProg(rounds int) api.ThreadFunc {
	return func(th api.Thread) {
		buf := th.Malloc(64 * 1024)
		out := th.Malloc(8 * 8)
		mu := api.Addr(64)
		// One chatty worker generating lots of slices...
		chatty := th.Spawn(func(c api.Thread) {
			for round := 0; round < rounds; round++ {
				c.Lock(mu)
				for i := 0; i < 512; i++ {
					c.Store64(buf+api.Addr(8*i), uint64(round*7+i))
				}
				c.Unlock(mu)
			}
		})
		// ...two silent compute workers that never synchronize until exit
		// (thread IDs 2 and 3)...
		var silent []api.ThreadID
		for wIdx := 0; wIdx < 2; wIdx++ {
			slot := api.Addr(8 * wIdx)
			silent = append(silent, th.Spawn(func(c api.Thread) {
				var acc uint64
				for i := 0; i < 1000; i++ {
					acc = acc*31 + uint64(i)
					c.Tick(20)
				}
				c.Store64(out+slot, acc)
			}))
		}
		// ...while the main thread keeps acquiring (so its clock advances:
		// the only thing pinning the GC frontier is the silent workers).
		// The tick weight matches the chatty worker's per-round work so
		// Kendo interleaves the two loops round for round.
		for round := 0; round < rounds; round++ {
			th.Lock(mu)
			th.Tick(1600)
			th.Unlock(mu)
		}
		th.Join(chatty)
		for _, id := range silent {
			th.Join(id)
		}
		th.Observe(th.Load64(buf), th.Load64(out), th.Load64(out+8))
	}
}

// TestNoCommHintEnablesEagerGC verifies the §5.4 extension: with the silent
// workers hinted, garbage collection can reclaim the chatty threads' slices;
// without the hint, the silent workers' stale clocks pin them.
//
// It is also the test that covers windowed collection's trim-site
// invalidation (gcLocked's forgetMarks): GC passes run between the main
// thread's acquires here, and with the marks left standing across a trim the
// equal-results check below fails ("hint changed results: [413 …] vs
// [259 …]"). window_test.go covers the other site, the barrier's re-list.
func TestNoCommHintEnablesEagerGC(t *testing.T) {
	base := DefaultOptions()
	base.MetadataCapacity = 96 * 1024
	base.GCThresholdPct = 50

	hinted := base
	hinted.NoCommHint = func(tid int32) bool { return tid == 2 || tid == 3 } // the silent workers

	without, err := New(base).Run(hintProg(60))
	if err != nil {
		t.Fatal(err)
	}
	with, err := New(hinted).Run(hintProg(60))
	if err != nil {
		t.Fatal(err)
	}
	// Results must be identical: the hint is true here (the silent workers
	// really never acquire), so no propagation is lost.
	for i, v := range without.Observations[0] {
		if with.Observations[0][i] != v {
			t.Fatalf("hint changed results: %v vs %v", with.Observations[0], without.Observations[0])
		}
	}
	// The hinted run must keep the metadata high-water lower: the frontier
	// advances past the chatty threads' consumed slices.
	if with.Stats.MetadataBytes >= without.Stats.MetadataBytes {
		t.Fatalf("hint did not reduce metadata: %d (hinted) vs %d (unhinted)",
			with.Stats.MetadataBytes, without.Stats.MetadataBytes)
	}
}

// TestNoCommHintDeterministic: the hint must not break determinism.
func TestNoCommHintDeterministic(t *testing.T) {
	opts := DefaultOptions()
	opts.MetadataCapacity = 96 * 1024
	opts.GCThresholdPct = 50
	opts.NoCommHint = func(tid int32) bool { return tid >= 2 }
	var first uint64
	for i := 0; i < 3; i++ {
		rep, err := New(opts).Run(hintProg(40))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rep.OutputHash
		} else if rep.OutputHash != first {
			t.Fatal("hinted execution nondeterministic")
		}
	}
}
