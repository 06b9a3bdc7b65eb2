package pthreads

import (
	"testing"

	"rfdet/internal/api"
)

func run(t *testing.T, fn api.ThreadFunc) *api.Report {
	t.Helper()
	rep, err := New().Run(fn)
	if err != nil {
		t.Fatalf("Run failed: %v", err)
	}
	return rep
}

func TestMemoryOps(t *testing.T) {
	rep := run(t, func(th api.Thread) {
		a := th.Malloc(64)
		th.Store8(a, 1)
		th.Store32(a+4, 2)
		th.Store64(a+8, 3)
		th.StoreF64(a+16, 2.5)
		buf := []byte{9, 8, 7}
		th.WriteBytes(a+32, buf)
		got := make([]byte, 3)
		th.ReadBytes(a+32, got)
		th.Observe(uint64(th.Load8(a)), uint64(th.Load32(a+4)), th.Load64(a+8))
		if th.LoadF64(a+16) != 2.5 {
			t.Error("LoadF64 mismatch")
		}
		if got[0] != 9 || got[2] != 7 {
			t.Error("ReadBytes mismatch")
		}
	})
	obs := rep.Observations[0]
	if obs[0] != 1 || obs[1] != 2 || obs[2] != 3 {
		t.Fatalf("observations %v", obs)
	}
}

func TestSharedMemoryVisibility(t *testing.T) {
	// Unlike the DMT runtimes, pthreads threads share memory directly:
	// a child's committed write is visible after join via real shared pages.
	rep := run(t, func(th api.Thread) {
		a := th.Malloc(8)
		id := th.Spawn(func(c api.Thread) { c.Store64(a, 31) })
		th.Join(id)
		th.Observe(th.Load64(a))
	})
	if rep.Observations[0][0] != 31 {
		t.Fatal("join visibility broken")
	}
}

func TestLockCounterRaceFree(t *testing.T) {
	rep := run(t, func(th api.Thread) {
		ctr := th.Malloc(8)
		mu := api.Addr(64)
		var ids []api.ThreadID
		for i := 0; i < 4; i++ {
			ids = append(ids, th.Spawn(func(c api.Thread) {
				for k := 0; k < 25; k++ {
					c.Lock(mu)
					c.Store64(ctr, c.Load64(ctr)+1)
					c.Unlock(mu)
				}
			}))
		}
		for _, id := range ids {
			th.Join(id)
		}
		th.Observe(th.Load64(ctr))
	})
	if rep.Observations[0][0] != 100 {
		t.Fatalf("counter = %d, want 100", rep.Observations[0][0])
	}
}

func TestCondVarPingPong(t *testing.T) {
	rep := run(t, func(th api.Thread) {
		state := th.Malloc(8)
		count := th.Malloc(8)
		mu, cond := api.Addr(64), api.Addr(128)
		const rounds = 5
		id := th.Spawn(func(c api.Thread) {
			for i := 0; i < rounds; i++ {
				c.Lock(mu)
				for c.Load64(state) != 1 {
					c.Wait(cond, mu)
				}
				c.Store64(count, c.Load64(count)+1)
				c.Store64(state, 0)
				c.Signal(cond)
				c.Unlock(mu)
			}
		})
		for i := 0; i < rounds; i++ {
			th.Lock(mu)
			for th.Load64(state) != 0 {
				th.Wait(cond, mu)
			}
			th.Store64(count, th.Load64(count)+1)
			th.Store64(state, 1)
			th.Signal(cond)
			th.Unlock(mu)
		}
		th.Join(id)
		th.Observe(th.Load64(count))
	})
	if rep.Observations[0][0] != 10 {
		t.Fatalf("count = %d", rep.Observations[0][0])
	}
}

func TestBarrier(t *testing.T) {
	rep := run(t, func(th api.Thread) {
		arr := th.Malloc(8 * 3)
		bar := api.Addr(64)
		var ids []api.ThreadID
		for i := 1; i < 3; i++ {
			slot := api.Addr(8 * i)
			ids = append(ids, th.Spawn(func(c api.Thread) {
				c.Store64(arr+slot, uint64(c.ID())*10)
				c.Barrier(bar, 3)
				var sum uint64
				for k := 0; k < 3; k++ {
					sum += c.Load64(arr + api.Addr(8*k))
				}
				c.Observe(sum)
			}))
		}
		th.Store64(arr, 1)
		th.Barrier(bar, 3)
		for _, id := range ids {
			th.Join(id)
		}
	})
	for tid := api.ThreadID(1); tid <= 2; tid++ {
		if rep.Observations[tid][0] != 31 {
			t.Fatalf("thread %d saw %d, want 31", tid, rep.Observations[tid][0])
		}
	}
}

func TestAtomics(t *testing.T) {
	rep := run(t, func(th api.Thread) {
		ctr := th.Malloc(8)
		var ids []api.ThreadID
		for i := 0; i < 4; i++ {
			ids = append(ids, th.Spawn(func(c api.Thread) {
				for k := 0; k < 25; k++ {
					c.AtomicAdd64(ctr, 1)
				}
			}))
		}
		for _, id := range ids {
			th.Join(id)
		}
		if !th.AtomicCAS64(ctr, 100, 200) {
			t.Error("CAS should succeed")
		}
		if th.AtomicCAS64(ctr, 100, 300) {
			t.Error("CAS should fail")
		}
		th.Observe(th.Load64(ctr))
	})
	if rep.Observations[0][0] != 200 {
		t.Fatalf("counter = %d", rep.Observations[0][0])
	}
}

func TestPanicPropagates(t *testing.T) {
	_, err := New().Run(func(th api.Thread) {
		panic("boom")
	})
	if err == nil {
		t.Fatal("expected error from panicking thread")
	}
}

func TestName(t *testing.T) {
	if New().Name() != "pthreads" {
		t.Fatal("wrong name")
	}
}

// TestConcurrentAccessesShareOneSpace: threads that store and load their own
// words of the same pages at once, through every access method, all reach
// the one mem.Space. The words stride over more pages than the space's page
// cache holds, so nearly every access refills a cache slot: under -race
// (make race) an access that skips sharedSpace.mu shows here.
func TestConcurrentAccessesShareOneSpace(t *testing.T) {
	const threads, pages = 4, 40
	word := func(base api.Addr, tid, p int) api.Addr { return base + api.Addr(p*4096+tid*64) }
	rep := run(t, func(th api.Thread) {
		base := th.Malloc(pages * 4096)
		var ids []api.ThreadID
		for i := 1; i <= threads; i++ {
			ids = append(ids, th.Spawn(func(c api.Thread) {
				for p := 0; p < pages; p++ {
					a := word(base, i, p)
					c.Store8(a, uint8(i))
					c.Store32(a+8, uint32(i))
					c.Store64(a+16, uint64(i))
					c.StoreF64(a+24, float64(i))
					c.WriteBytes(a+32, []byte{byte(i), byte(p)})
					buf := make([]byte, 2)
					c.ReadBytes(a+32, buf)
					if uint64(c.Load8(a))+uint64(c.Load32(a+8))+c.Load64(a+16) != 3*uint64(i) ||
						c.LoadF64(a+24) != float64(i) || buf[0] != byte(i) || buf[1] != byte(p) {
						t.Errorf("thread %d page %d: a word does not read back", i, p)
					}
				}
			}))
		}
		for _, id := range ids {
			th.Join(id)
		}
		var sum uint64
		for i := 1; i <= threads; i++ {
			for p := 0; p < pages; p++ {
				sum += th.Load64(word(base, i, p) + 16)
			}
		}
		th.Observe(sum)
	})
	if got, want := rep.Observations[0][0], uint64(pages*threads*(threads+1)/2); got != want {
		t.Fatalf("sum of the threads' words = %d, want %d", got, want)
	}
}
