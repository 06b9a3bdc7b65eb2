package core

import (
	"testing"

	"rfdet/internal/api"
	"rfdet/internal/mem"
)

// TestBarrierReuseAcrossGenerations drives one barrier through many
// generations with writes between them: every generation must merge every
// arrival's updates (the copy-on-write redistribution of §4.1 must reset
// cleanly).
func TestBarrierReuseAcrossGenerations(t *testing.T) {
	for _, opts := range allConfigs() {
		rep := run(t, opts, func(th api.Thread) {
			const n, gens = 3, 8
			cells := th.Malloc(8 * n)
			bar := api.Addr(64)
			ids := make([]api.ThreadID, 0, n-1)
			body := func(c api.Thread, me int) {
				for g := 0; g < gens; g++ {
					// Each thread bumps its own cell, then after the barrier
					// verifies it sees everyone's bump for this generation.
					c.Store64(cells+api.Addr(8*me), c.Load64(cells+api.Addr(8*me))+1)
					c.Barrier(bar, n)
					for k := 0; k < n; k++ {
						if got := c.Load64(cells + api.Addr(8*k)); got != uint64(g+1) {
							c.Observe(0xdead, uint64(g), uint64(k), got)
							return
						}
					}
					c.Barrier(bar, n) // generation separator
				}
				c.Observe(1)
			}
			for w := 1; w < n; w++ {
				w := w
				ids = append(ids, th.Spawn(func(c api.Thread) { body(c, w) }))
			}
			body(th, 0)
			for _, id := range ids {
				th.Join(id)
			}
		})
		for tid, obs := range rep.Observations {
			if len(obs) != 1 || obs[0] != 1 {
				t.Fatalf("opts %+v: thread %d saw stale generation data: %v", opts, tid, obs)
			}
		}
	}
}

// TestBroadcastWakesAllInOrder checks that broadcast moves every waiter to
// the mutex queue in deterministic order and each sees the predicate.
func TestBroadcastWakesAllInOrder(t *testing.T) {
	for _, opts := range allConfigs() {
		rep := run(t, opts, func(th api.Thread) {
			mu, cond := api.Addr(64), api.Addr(128)
			gate := th.Malloc(8)
			order := th.Malloc(8 * 8)
			idx := th.Malloc(8)
			var ids []api.ThreadID
			for w := 0; w < 4; w++ {
				ids = append(ids, th.Spawn(func(c api.Thread) {
					c.Lock(mu)
					for c.Load64(gate) == 0 {
						c.Wait(cond, mu)
					}
					i := c.Load64(idx)
					c.Store64(order+api.Addr(8*i), uint64(c.ID()))
					c.Store64(idx, i+1)
					c.Unlock(mu)
				}))
			}
			th.Tick(100000) // let all four wait first (deterministic order)
			th.Lock(mu)
			th.Store64(gate, 1)
			th.Broadcast(cond)
			th.Unlock(mu)
			for _, id := range ids {
				th.Join(id)
			}
			var got []uint64
			n := th.Load64(idx)
			for i := uint64(0); i < n; i++ {
				got = append(got, th.Load64(order+api.Addr(8*i)))
			}
			th.Observe(got...)
		})
		obs := rep.Observations[0]
		if len(obs) != 4 {
			t.Fatalf("opts %+v: %d waiters woke, want 4 (%v)", opts, len(obs), obs)
		}
		// Wake order is the deterministic wait order: ascending thread IDs
		// here, because the waiters queued in Kendo order.
		for i, tid := range obs {
			if tid != uint64(i+1) {
				t.Fatalf("opts %+v: wake order %v, want [1 2 3 4]", opts, obs)
			}
		}
	}
}

// TestSignalWithoutWaiterIsLost pins the pthreads semantics: a signal with
// no waiter does nothing (predicates must be rechecked, never assumed).
func TestSignalWithoutWaiterIsLost(t *testing.T) {
	rep := run(t, DefaultOptions(), func(th api.Thread) {
		mu, cond := api.Addr(64), api.Addr(128)
		flag := th.Malloc(8)
		th.Lock(mu)
		th.Signal(cond) // nobody waits: lost
		th.Unlock(mu)
		id := th.Spawn(func(c api.Thread) {
			c.Lock(mu)
			// The earlier signal must not wake this later waiter; only the
			// main thread's second signal does.
			for c.Load64(flag) == 0 {
				c.Wait(cond, mu)
			}
			c.Observe(c.Load64(flag))
			c.Unlock(mu)
		})
		th.Tick(100000)
		th.Lock(mu)
		th.Store64(flag, 5)
		th.Signal(cond)
		th.Unlock(mu)
		th.Join(id)
	})
	if rep.Observations[1][0] != 5 {
		t.Fatalf("waiter observed %v", rep.Observations[1])
	}
}

// TestMallocFreeReuseUnderRuntime exercises allocator reuse through the
// Thread API, including a cross-thread free that a Join orders before the
// owner's next Malloc.
func TestMallocFreeReuseUnderRuntime(t *testing.T) {
	rep := run(t, DefaultOptions(), func(th api.Thread) {
		a := th.Malloc(64)
		th.Store64(a, 7)
		holder := th.Malloc(8)
		th.Store64(holder, uint64(a))
		id := th.Spawn(func(c api.Thread) {
			// Cross-thread free of the parent's allocation.
			c.Free(api.Addr(c.Load64(holder)))
		})
		th.Join(id)
		b := th.Malloc(64) // parent reuses its freed block
		reused := uint64(0)
		if b == a {
			reused = 1
		}
		th.Observe(reused)
	})
	if rep.Observations[0][0] != 1 {
		t.Fatal("freed block was not reused by the owning heap")
	}
}

// TestWriteBytesAcrossPagesMonitored verifies multi-page WriteBytes is
// fully monitored under both monitors: every touched page's modifications
// propagate.
func TestWriteBytesAcrossPagesMonitored(t *testing.T) {
	for _, monitor := range []Monitor{MonitorCI, MonitorPF} {
		opts := DefaultOptions()
		opts.Monitor = monitor
		rep := run(t, opts, func(th api.Thread) {
			span := th.Malloc(3 * mem.PageSize)
			id := th.Spawn(func(c api.Thread) {
				data := make([]byte, 2*mem.PageSize+100)
				for i := range data {
					data[i] = byte(i * 13)
				}
				c.WriteBytes(span+100, data)
			})
			th.Join(id)
			buf := make([]byte, 2*mem.PageSize+100)
			th.ReadBytes(span+100, buf)
			ok := uint64(1)
			for i := range buf {
				if buf[i] != byte(i*13) {
					ok = 0
					break
				}
			}
			th.Observe(ok)
		})
		if rep.Observations[0][0] != 1 {
			t.Fatalf("monitor %v: multi-page write not fully propagated", monitor)
		}
	}
}

// TestManyThreads pushes past the typical benchmark widths.
func TestManyThreads(t *testing.T) {
	rep := run(t, DefaultOptions(), func(th api.Thread) {
		const n = 24
		ctr := th.Malloc(8)
		mu := api.Addr(64)
		var ids []api.ThreadID
		for i := 0; i < n; i++ {
			ids = append(ids, th.Spawn(func(c api.Thread) {
				c.Lock(mu)
				c.Store64(ctr, c.Load64(ctr)+1)
				c.Unlock(mu)
			}))
		}
		for _, id := range ids {
			th.Join(id)
		}
		th.Observe(th.Load64(ctr))
	})
	if rep.Observations[0][0] != 24 {
		t.Fatalf("counter = %d", rep.Observations[0][0])
	}
	if rep.Threads != 25 {
		t.Fatalf("threads = %d", rep.Threads)
	}
}

// TestNestedSpawn verifies grandchildren inherit transitively.
func TestNestedSpawn(t *testing.T) {
	rep := run(t, DefaultOptions(), func(th api.Thread) {
		x := th.Malloc(8)
		th.Store64(x, 11)
		child := th.Spawn(func(c api.Thread) {
			c.Store64(x, c.Load64(x)+1) // sees 11 via inheritance
			grand := c.Spawn(func(g api.Thread) {
				g.Store64(x, g.Load64(x)*2) // sees 12
			})
			c.Join(grand)
		})
		th.Join(child)
		th.Observe(th.Load64(x))
	})
	if rep.Observations[0][0] != 24 {
		t.Fatalf("x = %d, want 24", rep.Observations[0][0])
	}
}
