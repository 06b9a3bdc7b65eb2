package core

import (
	"testing"

	"rfdet/internal/api"
)

// These tests back the //detvet:orderfree annotations: each exercises a loop
// that ranges over a Go map (randomized iteration order) many times and
// demands a canonical, order-independent outcome. Go rerandomizes map
// iteration per range statement, so dense repetition covers many orders.

// TestPendingResetOrderFree drives the barrier's pending drain-and-release
// loop through the real runtime: threads accumulate lazy pending state from
// propagation, then hit a barrier, which discards it (the re-clone makes it
// moot). Whatever order the drain loop visits pages in, post-barrier reads
// must see the merged image, and the whole run must stay deterministic.
func TestPendingResetOrderFree(t *testing.T) {
	opts := DefaultOptions() // LazyWrites on
	const threads = 4
	var want []uint64
	for rep := 0; rep < 20; rep++ {
		report := run(t, opts, func(th api.Thread) {
			bar := api.Addr(64)
			l := api.Addr(128)
			arr := th.Malloc(8 * 64)
			var ids []api.ThreadID
			for i := 1; i < threads; i++ {
				i := i
				ids = append(ids, th.Spawn(func(w api.Thread) {
					// Write a private stripe, publish via the lock (threads
					// that later acquire pend these writes lazily)…
					for k := 0; k < 16; k++ {
						w.Store64(arr+api.Addr(8*(16*i+k)), uint64(1000*i+k))
					}
					w.Lock(l)
					w.Unlock(l)
					// …then discard pending state at the barrier and read
					// everyone's stripes after it.
					w.Barrier(bar, threads)
					var sum uint64
					for k := 0; k < 16*threads; k++ {
						sum += w.Load64(arr + api.Addr(8*k))
					}
					w.Observe(sum)
				}))
			}
			for k := 0; k < 16; k++ {
				th.Store64(arr+api.Addr(8*k), uint64(k))
			}
			th.Lock(l)
			th.Unlock(l)
			th.Barrier(bar, threads)
			var sum uint64
			for k := 0; k < 16*threads; k++ {
				sum += th.Load64(arr + api.Addr(8*k))
			}
			th.Observe(sum)
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
}
