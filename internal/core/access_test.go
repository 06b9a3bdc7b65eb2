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
// access of a real workload's compute phase runs beside.
func BenchmarkThreadAccess(b *testing.B) {
	for _, bc := range []struct {
		name   string
		store  bool
		polled bool
	}{
		{"Load64/alone", false, false},
		{"Load64/polled", false, true},
		{"Store64/alone", true, false},
		{"Store64/polled", true, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			_, err := New(DefaultOptions()).Run(func(th api.Thread) {
				base := th.Malloc(2 * mem.PageSize)
				mu := th.Malloc(8)
				// Resident pages, as matmul's initialised matrices are.
				th.WriteBytes(base, make([]byte, 2*mem.PageSize))
				// Spawning is what turns the main thread's monitoring on.
				peer := th.Spawn(func(c api.Thread) {
					if bc.polled {
						// Past anything the loop below can reach, so the turn is
						// waited for until the Join's block cedes it.
						c.Tick(uint64(b.N) + 1<<20)
						c.Lock(mu)
						c.Unlock(mu)
					}
				})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a := base + api.Addr((i&1)*mem.PageSize+((i>>1)%(mem.PageSize/8))*8)
					if bc.store {
						th.Store64(a, uint64(i))
					} else {
						accessSink += th.Load64(a)
					}
				}
				b.StopTimer()
				th.Join(peer)
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
