package rfdet_test

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"rfdet"
)

// A thread publishes its Kendo clock a chunk of ticks at a time (internal/core:
// chunks of 1, 2, 4, … tickChunk = 64 ticks after each operation), so between
// publications the clock its peers scan is behind the true one. These programs put a waiter W in
// WaitForTurn and have a second thread T stop ticking in every way a thread
// can — take a turn, exit, block, abort — with an unpublished remainder below
// the chunk, or arrive there by one Tick, ReadBytes or WriteBytes far larger
// than the chunk. Each must finish (the 10 s watchdog of allocabort_test.go)
// and must admit W and T in the order of their true clocks, which the
// lock-protected log records: in the first two programs the remainder alone
// decides that order, so a turn taken on a stale clock shows as a swapped log.
// The expected logs are what the per-access clock of the parent commit gives.

const (
	lagMu  = rfdet.Addr(64)
	lagBar = rfdet.Addr(128)
)

// lagLog appends the calling thread's ID to the log at base, under lagMu.
func lagLog(th rfdet.Thread, base rfdet.Addr) {
	th.Lock(lagMu)
	n := th.Load64(base)
	th.Store64(base+8*rfdet.Addr(n+1), uint64(th.ID()))
	th.Store64(base, n+1)
	th.Unlock(lagMu)
}

func lagLoads(th rfdet.Thread, a rfdet.Addr, n int) {
	for i := 0; i < n; i++ {
		th.Load64(a)
	}
}

func TestNoStrandedWaiter(t *testing.T) {
	// W is thread 1 and registers at main's clock + 1; T is thread 2 and
	// registers 2 ticks later (main's Spawn passes the turn with Tick(2)).
	for _, sc := range []struct {
		name    string
		wTicks  uint64
		body    func(th rfdet.Thread, base rfdet.Addr) // T's; W is thread 1
		want    []uint64
		wantErr string
	}{
		{"remainder puts T after W", 70, func(th rfdet.Thread, base rfdet.Addr) {
			th.Tick(60)
			lagLoads(th, base, 9) // T at +71 against W at +70, its last 3 ticks unpublished
			lagLog(th, base)
		}, []uint64{1, 2}, ""},
		{"remainder puts T before W", 70, func(th rfdet.Thread, base rfdet.Addr) {
			th.Tick(60)
			lagLoads(th, base, 5) // T at +67, 3 of them unpublished
			lagLog(th, base)
		}, []uint64{2, 1}, ""},
		{"one Tick far past the chunk", 70, func(th rfdet.Thread, base rfdet.Addr) {
			th.Tick(100000)
			lagLog(th, base)
		}, []uint64{1, 2}, ""},
		{"WriteBytes and ReadBytes past the chunk", 500, func(th rfdet.Thread, base rfdet.Addr) {
			buf := make([]byte, 300)
			th.WriteBytes(base+4096, buf)
			th.ReadBytes(base+4096, buf) // T at +602
			lagLog(th, base)
		}, []uint64{1, 2}, ""},
		{"ReadBytes short of the waiter", 500, func(th rfdet.Thread, base rfdet.Addr) {
			th.ReadBytes(base+4096, make([]byte, 300)) // T at +302
			lagLog(th, base)
		}, []uint64{2, 1}, ""},
		{"exits below the chunk", 1000, func(th rfdet.Thread, base rfdet.Addr) {
			lagLoads(th, base, 6) // chunks of 1 and 2 published, 3 ticks not
		}, []uint64{1}, ""},
		{"blocks below the chunk", 1000, func(th rfdet.Thread, base rfdet.Addr) {
			lagLoads(th, base, 6) // chunks of 1 and 2 published, 3 ticks not
			th.Join(1)
			lagLog(th, base)
		}, []uint64{1, 2}, ""},
		{"aborts below the chunk", 1000, func(th rfdet.Thread, base rfdet.Addr) {
			lagLoads(th, base, 6) // chunks of 1 and 2 published, 3 ticks not
			th.Barrier(lagBar, 0)
		}, nil, "barrier with count"},
	} {
		t.Run(sc.name, func(t *testing.T) {
			lagRuns(t, sc.want, sc.wantErr, func(th rfdet.Thread) {
				base := th.Malloc(2 * 4096)
				w := th.Spawn(func(c rfdet.Thread) {
					c.Tick(sc.wTicks)
					lagLog(c, base)
				})
				x := th.Spawn(func(c rfdet.Thread) { sc.body(c, base) })
				th.Join(w)
				th.Join(x)
				th.Observe(lagRead(th, base)...)
			})
		})
	}

	// The main thread before its first Spawn does not monitor its stores
	// (§4.1) but ticks like any other: the last 9 of the 40 accesses below are
	// unpublished at the Spawn's turn, and the child's clock starts from all 40.
	t.Run("main before its first spawn", func(t *testing.T) {
		lagRuns(t, []uint64{0, 1}, "", func(th rfdet.Thread) {
			base := th.Malloc(4096)
			for i := 0; i < 20; i++ {
				th.Store64(base+2048, th.Load64(base+2048)+1)
			}
			c := th.Spawn(func(c rfdet.Thread) {
				c.Tick(10)
				lagLog(c, base)
			})
			lagLoads(th, base, 5)
			lagLog(th, base)
			th.Join(c)
			th.Observe(lagRead(th, base)...)
		})
	})
}

func lagRead(th rfdet.Thread, base rfdet.Addr) []uint64 {
	log := make([]uint64, th.Load64(base))
	for i := range log {
		log[i] = th.Load64(base + 8*rfdet.Addr(i+1))
	}
	return log
}

// lagRuns runs prog 100 times at GOMAXPROCS 1 and 4 beside the watchdog and
// requires main's observations to be want, or the error to contain wantErr.
func lagRuns(t *testing.T, want []uint64, wantErr string, prog rfdet.ThreadFunc) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		withWatchdog(t, 10*time.Second, func() error {
			for i := 0; i < 100; i++ {
				rep, err := rfdet.NewCI().Run(prog)
				switch {
				case wantErr != "":
					if err == nil || !strings.Contains(err.Error(), wantErr) {
						return fmt.Errorf("P=%d run %d: error = %v, want one containing %q", procs, i, err, wantErr)
					}
				case err != nil:
					return fmt.Errorf("P=%d run %d: %v", procs, i, err)
				case !slices.Equal(rep.Observations[0], want):
					return fmt.Errorf("P=%d run %d: admission log %v, want %v", procs, i, rep.Observations[0], want)
				}
			}
			return nil
		})
	}
}
