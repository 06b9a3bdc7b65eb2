package core

import (
	"reflect"
	"testing"
	"unsafe"

	"rfdet/internal/api"
)

// Windowed collection (collectLocked) skips the prefix of a list its reader
// has already seen. The tests here cover what the goldens cannot: the
// barrier's re-list must void the marks on the replaced list, and the scan
// must stay linear in the list's growth. The third place a mark can go
// stale, gcLocked's trim, is covered by TestCollectedSlicesStayPended and
// TestEveryStatsCounterIsWired: both fail with the trim's forgetMarks removed.

// TestSubsetBarrierOutsiderAcquire: an outsider that has a mark on a thread's
// list must rescan that list after a barrier replaced it by the leader's,
// or it silently loses the leader's slices the barrier put in front.
//
// A (tid 1) commits 6 slices under a private lock and ticks far ahead. B
// (tid 2) commits 12 under lock L. C (tid 3) acquires L from B, B releases L
// once more, C acquires again — C's mark on B's list now stands at 12. A and
// B meet at a 2-party barrier, which makes B's list [a1..a6, b1..b13]; B
// releases L a last time, and C's third acquire must collect a1..a6 from
// below its old mark. Phases are sequenced by Tick, as in edge_test.go.
func TestSubsetBarrierOutsiderAcquire(t *testing.T) {
	for _, opts := range allConfigs() {
		opts.Validate = true
		rep := run(t, opts, func(th api.Thread) {
			cellA, cellB := th.Malloc(8), th.Malloc(8)
			la, l, bar := api.Addr(64), api.Addr(128), api.Addr(192)
			a := th.Spawn(func(c api.Thread) {
				for i := uint64(1); i <= 6; i++ {
					c.Lock(la)
					c.Store64(cellA, i)
					c.Unlock(la)
				}
				c.Tick(1_000_000) // arrive at the barrier after C's second acquire
				c.Barrier(bar, 2)
			})
			b := th.Spawn(func(c api.Thread) {
				for i := uint64(1); i <= 12; i++ {
					c.Lock(l)
					c.Store64(cellB, i)
					c.Unlock(l)
				}
				c.Tick(20_000) // C's first acquire runs here
				c.Lock(l)
				c.Store64(cellB, 500)
				c.Unlock(l)
				c.Tick(20_000) // C's second acquire runs here
				c.Barrier(bar, 2)
				c.Lock(l)
				c.Store64(cellB, 1000)
				c.Unlock(l)
			})
			c := th.Spawn(func(c api.Thread) {
				c.Tick(10_000)
				c.Lock(l)
				c.Observe(c.Load64(cellB))
				c.Unlock(l)
				c.Tick(20_000)
				c.Lock(l)
				c.Observe(c.Load64(cellB))
				c.Unlock(l)
				c.Tick(2_000_000) // past A's barrier arrival and B's last release
				c.Lock(l)
				c.Observe(c.Load64(cellB), c.Load64(cellA))
				c.Unlock(l)
			})
			th.Join(a)
			th.Join(b)
			th.Join(c)
		})
		if got, want := rep.Observations[3], []uint64{12, 500, 1000, 6}; !reflect.DeepEqual(got, want) {
			t.Fatalf("opts %+v: outsider observed %v, want %v", opts, got, want)
		}
	}
}

// TestCollectScanLinearInListGrowth pins the window's bound on a two-thread
// lock ping-pong: each acquire scans what the other side appended since the
// last one (plus the run it just took, once more, to step the mark over it),
// so N rounds scan O(N) slice pointers. A whole-list scan reads 2–3·N² here;
// every golden would stay green if one came back.
func TestCollectScanLinearInListGrowth(t *testing.T) {
	const n = 200
	for _, opts := range []Options{{}, DefaultOptions()} {
		rep := run(t, opts, func(th api.Thread) {
			cell := th.Malloc(8)
			mu := api.Addr(64)
			body := func(c api.Thread) {
				for i := 0; i < n; i++ {
					c.Lock(mu)
					c.Store64(cell, c.Load64(cell)+1)
					c.Unlock(mu)
					c.Tick(50)
				}
			}
			id := th.Spawn(body)
			body(th)
			th.Join(id)
			th.Observe(th.Load64(cell))
		})
		if got := rep.Observations[0][0]; got != 2*n {
			t.Fatalf("opts %+v: counter = %d, want %d", opts, got, 2*n)
		}
		if got := rep.Stats.CollectScanned; got > 8*n {
			t.Fatalf("opts %+v: CollectScanned = %d over %d rounds, want ≤ %d (linear)", opts, got, n, 8*n)
		}
	}
}

// TestThreadStaysInSizeClass: thread is 680 bytes in the 704-byte allocation
// size class (the next class is 768), so 24 bytes of fields are free and the
// 25th costs every thread 64 bytes and moves alloc_kb_per_run. The window
// state is one pointer, and the clock lag and the store check's charge sit in
// the flags' padding.
func TestThreadStaysInSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(thread{}); sz > 704 {
		t.Fatalf("unsafe.Sizeof(thread{}) = %d, want ≤ 704", sz)
	}
}
