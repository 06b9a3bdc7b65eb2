package core

import (
	"runtime"
	"testing"

	"rfdet/internal/api"
)

// TestFigure2Visibility reproduces Figure 2 of the paper: a modification by
// T1 is visible in T2 if and only if it happens-before T2's current
// instruction.
//
//	T1: x=1; lock l; unlock l; x=2
//	T2:                         print x   (no sync: must see 0)
//	T2: lock l; unlock l;       print x   (must see 1 — not 2)
//
// T2's logical clock is padded with ticks so that Kendo deterministically
// orders T1's operations first.
func TestFigure2Visibility(t *testing.T) {
	for _, opts := range allConfigs() {
		rep := run(t, opts, func(th api.Thread) {
			x := th.Malloc(8)
			l := api.Addr(64)
			t1 := th.Spawn(func(c api.Thread) {
				c.Store64(x, 1)
				c.Lock(l)
				c.Unlock(l)
				c.Store64(x, 2)
			})
			t2 := th.Spawn(func(c api.Thread) {
				c.Tick(100000) // order all of T1 before T2's synchronization
				c.Observe(c.Load64(x))
				c.Lock(l)
				c.Unlock(l)
				c.Observe(c.Load64(x))
			})
			th.Join(t1)
			th.Join(t2)
		})
		obs := rep.Observations[2]
		if len(obs) != 2 || obs[0] != 0 || obs[1] != 1 {
			t.Fatalf("opts %+v: T2 observed %v, want [0 1]", opts, obs)
		}
	}
}

// TestFigure6Propagation reproduces Figure 6: transitive propagation,
// redundant-propagation filtering, and deterministic conflict resolution
// where remote modifications overwrite local ones.
//
//	T1: x=1 ; release ; x=3 ............ acquire → sees y=1, keeps x=3
//	T2: acquire (x=1) ; y=1 ; release
//	T3: y=2 ; acquire (x=1, y=1/y=2) ; release
func TestFigure6Propagation(t *testing.T) {
	for _, opts := range allConfigs() {
		rep := run(t, opts, func(th api.Thread) {
			x := th.Malloc(8)
			y := th.Malloc(8)
			l := api.Addr(64)
			t1 := th.Spawn(func(c api.Thread) {
				c.Store64(x, 1)
				c.Lock(l)
				c.Unlock(l)
				c.Store64(x, 3)
				c.Tick(300000) // wait for T3's release
				c.Lock(l)
				c.Observe(c.Load64(x), c.Load64(y)) // expect x=3 (own), y=1 (from T2 via T3)
				c.Unlock(l)
			})
			t2 := th.Spawn(func(c api.Thread) {
				c.Tick(100000) // after T1's release
				c.Lock(l)
				c.Observe(c.Load64(x)) // expect x=1 (propagated from T1)
				c.Store64(y, 1)
				c.Unlock(l)
			})
			t3 := th.Spawn(func(c api.Thread) {
				c.Store64(y, 2)
				c.Tick(200000) // after T2's release
				c.Lock(l)
				// Transitive propagation delivers x=1; the conflicting remote
				// y=1 deterministically overwrites the local y=2.
				c.Observe(c.Load64(x), c.Load64(y))
				c.Unlock(l)
			})
			th.Join(t1)
			th.Join(t2)
			th.Join(t3)
		})
		if obs := rep.Observations[2]; len(obs) != 1 || obs[0] != 1 {
			t.Fatalf("opts %+v: T2 observed %v, want [1]", opts, obs)
		}
		if obs := rep.Observations[3]; len(obs) != 2 || obs[0] != 1 || obs[1] != 1 {
			t.Fatalf("opts %+v: T3 observed %v, want [1 1]", opts, obs)
		}
		if obs := rep.Observations[1]; len(obs) != 2 || obs[0] != 3 || obs[1] != 1 {
			t.Fatalf("opts %+v: T1 observed %v, want [3 1]", opts, obs)
		}
	}
}

// TestTransitiveLockHandoffChain: propagation is transitive across two
// mutexes. A publishes x under m0; B acquires m0, derives y from x and
// publishes both under m1; C acquires only m1 — so C's view of x depends on
// the edge A --m0--> B --m1--> C carrying A's modifications through B's
// slice-pointer list (§4.3). The generous ticks pin the admission order so
// the chain is the only schedule. Validate checks the list invariants on the
// way.
func TestTransitiveLockHandoffChain(t *testing.T) {
	opts := DefaultOptions()
	opts.Validate = true
	m0, m1 := api.Addr(64), api.Addr(192)
	rep := run(t, opts, func(th api.Thread) {
		x := th.Malloc(8)
		y := th.Malloc(8)

		a := th.Spawn(func(c api.Thread) {
			c.Tick(100)
			c.Lock(m0)
			c.Store64(x, 1)
			c.Unlock(m0)
		})
		b := th.Spawn(func(c api.Thread) {
			c.Tick(10000)
			c.Lock(m0)
			v := c.Load64(x)
			c.Unlock(m0)
			c.Lock(m1)
			c.Store64(y, v+1)
			c.Unlock(m1)
		})
		cc := th.Spawn(func(c api.Thread) {
			c.Tick(100000)
			c.Lock(m1) // never touches m0
			c.Observe(c.Load64(x), c.Load64(y))
			c.Unlock(m1)
		})

		th.Join(a)
		th.Join(b)
		th.Join(cc)
		th.Observe(th.Load64(x), th.Load64(y))
	})

	if got := rep.Observations[3]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("C observed %v, want [1 2]: A's write did not travel through B's release of m1", got)
	}
	if got := rep.Observations[0]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("main observed %v, want [1 2]", got)
	}
}

// TestByteGranularityMerge reproduces the §4.6 example: with y==0 initially,
// T2 writes y=256 (only byte 1 differs) and T3 writes y=255 (only byte 0
// differs); page diffing at byte granularity merges the concurrent writes
// into y=511 — deterministic and semantically valid, since the program is
// racy.
func TestByteGranularityMerge(t *testing.T) {
	for _, opts := range allConfigs() {
		rep := run(t, opts, func(th api.Thread) {
			y := th.Malloc(4)
			l := api.Addr(64)
			t2 := th.Spawn(func(c api.Thread) {
				c.Store32(y, 256)
				c.Lock(l)
				c.Unlock(l)
			})
			t3 := th.Spawn(func(c api.Thread) {
				c.Store32(y, 255)
				c.Tick(100000) // acquire after T2's release
				c.Lock(l)
				c.Observe(uint64(c.Load32(y)))
				c.Unlock(l)
			})
			th.Join(t2)
			th.Join(t3)
			th.Observe(uint64(th.Load32(y)))
		})
		if obs := rep.Observations[2]; len(obs) != 1 || obs[0] != 511 {
			t.Fatalf("opts %+v: T3 observed %v, want [511]", opts, obs)
		}
		if obs := rep.Observations[0]; len(obs) != 1 || obs[0] != 511 {
			t.Fatalf("opts %+v: main observed %v, want [511]", opts, obs)
		}
	}
}

// TestRedundantWritePrefersLocal reproduces the §4.6 redundant-write policy:
// a remote write that re-stores a location's existing value produces no
// modification entry, so the local (non-redundant) write survives the merge.
func TestRedundantWritePrefersLocal(t *testing.T) {
	for _, opts := range allConfigs() {
		rep := run(t, opts, func(th api.Thread) {
			y := th.Malloc(8)
			l := api.Addr(64)
			th.Store64(y, 7) // initial value, inherited by both children
			t2 := th.Spawn(func(c api.Thread) {
				c.Store64(y, 7) // redundant: same as initial
				c.Lock(l)
				c.Unlock(l)
			})
			t3 := th.Spawn(func(c api.Thread) {
				c.Store64(y, 9) // non-redundant local write
				c.Tick(100000)
				c.Lock(l) // acquire from T2: its redundant write must not overwrite
				c.Observe(c.Load64(y))
				c.Unlock(l)
			})
			th.Join(t2)
			th.Join(t3)
		})
		if obs := rep.Observations[2]; len(obs) != 1 || obs[0] != 9 {
			t.Fatalf("opts %+v: T3 observed %v, want [9]", opts, obs)
		}
	}
}

// TestIsolationWithoutSync verifies the DLRC "must not be visible" rule:
// without synchronization, threads never see each other's writes, no matter
// how long they run.
func TestIsolationWithoutSync(t *testing.T) {
	for _, opts := range allConfigs() {
		rep := run(t, opts, func(th api.Thread) {
			x := th.Malloc(8)
			writer := th.Spawn(func(c api.Thread) {
				for i := 1; i <= 100; i++ {
					c.Store64(x, uint64(i))
				}
			})
			reader := th.Spawn(func(c api.Thread) {
				c.Tick(1000000) // plenty of logical time for the writer
				c.Observe(c.Load64(x))
			})
			th.Join(writer)
			th.Join(reader)
			th.Observe(th.Load64(x)) // joined both: must see 100
		})
		if obs := rep.Observations[2]; obs[0] != 0 {
			t.Fatalf("opts %+v: reader saw %d without synchronization", opts, obs[0])
		}
		if obs := rep.Observations[0]; obs[0] != 100 {
			t.Fatalf("opts %+v: main saw %d after joins, want 100", opts, obs[0])
		}
	}
}

// TestDeterminismUnderGOMAXPROCS runs a racy program under different
// GOMAXPROCS settings: physical parallelism must not change the output.
func TestDeterminismUnderGOMAXPROCS(t *testing.T) {
	prog := func(th api.Thread) {
		arr := th.Malloc(8 * 32)
		mu := api.Addr(64)
		var ids []api.ThreadID
		for w := 0; w < 4; w++ {
			ids = append(ids, th.Spawn(func(c api.Thread) {
				me := uint64(c.ID())
				for i := 0; i < 32; i++ {
					c.Store64(arr+api.Addr(8*i), me*1000+uint64(i))
					if i%8 == 0 {
						c.Lock(mu)
						c.Store64(arr, c.Load64(arr)+me)
						c.Unlock(mu)
					}
				}
			}))
		}
		for _, id := range ids {
			th.Join(id)
		}
		var sum uint64
		for i := 0; i < 32; i++ {
			sum += th.Load64(arr + api.Addr(8*i))
		}
		th.Observe(sum)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first uint64
	for i, procs := range []int{1, 2, 4, 1, 8} {
		runtime.GOMAXPROCS(procs)
		rep := run(t, DefaultOptions(), prog)
		if i == 0 {
			first = rep.OutputHash
		} else if rep.OutputHash != first {
			t.Fatalf("GOMAXPROCS=%d: hash %#x != first %#x", procs, rep.OutputHash, first)
		}
	}
}
