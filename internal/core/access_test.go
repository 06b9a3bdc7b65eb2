package core

import (
	"testing"

	"rfdet/internal/api"
	"rfdet/internal/mem"
)

var accessSink uint64

// BenchmarkThreadAccess is the all-in cost of one Load64 and one Store64
// through api.Thread — tick, statistics, virtual time, store check, fault
// check, page lookup, dirty mark — in a monitoring thread, alternating between
// two pages as matmul's inner loop alternates between a row of A and a column
// of B. The "polled" variants run it while a peer with a larger clock sits in
// WaitForTurn, scanning the accessing thread's published clock: what every
// access of a real workload's compute phase runs beside. The "pended" ones run
// it while a third page of the thread holds lazily pended writes, so the
// space has a protection to ask about on every access, as fft's spaces do
// between a barrier and the first touch of each page it propagated.
// "strided" stores 8 bytes in every 16, which takes both pages past
// maxExtentsPerPage into the chunk bitmap; the others store sequentially.
func BenchmarkThreadAccess(b *testing.B) {
	const alone, polled, pended, strided = 0, 1, 2, 3
	for _, bc := range []struct {
		name  string
		store bool
		mode  int
	}{
		{"Load64/alone", false, alone},
		{"Load64/polled", false, polled},
		{"Load64/pended", false, pended},
		{"Store64/alone", true, alone},
		{"Store64/polled", true, polled},
		{"Store64/pended", true, pended},
		{"Store64/strided", true, strided},
	} {
		b.Run(bc.name, func(b *testing.B) {
			_, err := New(DefaultOptions()).Run(func(th api.Thread) {
				base := th.Malloc(3 * mem.PageSize)
				mu := th.Malloc(8)
				// Resident pages, as matmul's initialised matrices are.
				th.WriteBytes(base, make([]byte, 3*mem.PageSize))
				// Spawning is what turns the main thread's monitoring on.
				peer := th.Spawn(func(c api.Thread) {
					switch bc.mode {
					case polled:
						// Past anything the loop below can reach, so the turn is
						// waited for until the Join's block cedes it.
						c.Tick(uint64(b.N) + 1<<20)
						c.Lock(mu)
						c.Unlock(mu)
					case pended:
						c.Store64(base+2*mem.PageSize, 1)
					}
				})
				if bc.mode == pended {
					th.Join(peer)
					if n := len(th.(*thread).pending); n != 1 {
						b.Errorf("%d pages pended after the join, want 1", n)
						return
					}
				}
				stride := 8
				if bc.mode == strided {
					stride = 16
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a := base + api.Addr((i&1)*mem.PageSize+(i>>1)*stride%mem.PageSize)
					if bc.store {
						th.Store64(a, uint64(i))
					} else {
						accessSink += th.Load64(a)
					}
				}
				b.StopTimer()
				if bc.mode != pended {
					th.Join(peer)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
