package core

import (
	"runtime"
	"testing"

	"rfdet/internal/api"
	"rfdet/internal/workloads"
)

// waitPrelockProg produces the one scenario where the release performed
// inside pthread_cond_wait is the *only* chance a queued waiter gets to
// pre-merge it: main releases the mutex inside Wait while A and B are both
// queued on it. The handoff pops A; B stays queued and must pre-merge main's
// release right there (§4.5) — by the time B itself is popped (by A's
// Unlock) the remaining queue is empty, so no later prelockRelease can make
// up for a missed one.
func waitPrelockProg(th api.Thread) {
	x := th.Malloc(4096)
	flag := th.Malloc(8)
	mu := api.Addr(64)
	cond := api.Addr(128)

	a := th.Spawn(func(c api.Thread) {
		c.Tick(1000)
		c.Lock(mu) // queued first; woken by main's Wait handoff
		c.Store64(flag, 1)
		c.Signal(cond) // main re-queues on mu behind B
		c.Unlock(mu)   // pops B
	})
	b := th.Spawn(func(c api.Thread) {
		c.Tick(2000)
		c.Lock(mu) // queued second; still queued at main's Wait
		c.Store64(x+8, c.Load64(x)+1)
		c.Unlock(mu) // pops main, whose Wait returns
	})

	th.Lock(mu)
	for i := 0; i < 64; i++ {
		// Byte-dense values: every byte of every word changes, so the diff
		// yields one 512-byte run and the stats below are predictable.
		th.Store64(x+api.Addr(8*i), (uint64(i)+1)*0x0101010101010101)
	}
	th.Tick(5000) // let A and B queue up on mu first
	for th.Load64(flag) == 0 {
		th.Wait(cond, mu)
	}
	th.Unlock(mu)
	th.Join(a)
	th.Join(b)
	th.Observe(th.Load64(x), th.Load64(x+8), th.Load64(flag))
}

// TestWaitHandoffPrelocks is the regression test for the lost §4.5 overlap:
// the mutex release inside Wait must pre-merge into the still-queued
// waiters exactly like Unlock's release does. Without the pre-merge the
// scenario performs zero prelock work (PrelockBytes == 0) and B's eventual
// acquire collects main's slice instead of filtering it as pre-merged.
func TestWaitHandoffPrelocks(t *testing.T) {
	rep, err := New(DefaultOptions()).Run(waitPrelockProg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.PrelockBytes < 512 {
		t.Fatalf("Wait's mutex handoff did not pre-merge into queued waiters: PrelockBytes = %d, want >= 512",
			rep.Stats.PrelockBytes)
	}
	if rep.Stats.SlicesFilteredPremerged == 0 {
		t.Fatal("no acquire ever filtered a pre-merged slice: the pre-merge either did not happen or was double-applied")
	}
	want := uint64(0x0101010101010101)
	if got := rep.Observations[0]; len(got) != 3 || got[0] != want || got[1] != want+1 || got[2] != 1 {
		t.Fatalf("unexpected observations: %v", got)
	}
}

// TestPremergedFilterStat verifies pre-merge skips are reported as
// SlicesFilteredPremerged, not mixed into SlicesFilteredLow: the two filters
// reject for different reasons (already seen per the lowerlimit clock vs.
// already applied by a §4.5 pre-merge) and the paper's propagation
// accounting is only interpretable if they are counted apart.
func TestPremergedFilterStat(t *testing.T) {
	prog := func(th api.Thread) {
		x := th.Malloc(4096)
		mu := api.Addr(64)
		th.Lock(mu)
		done := make([]api.ThreadID, 0, 2)
		for w := 0; w < 2; w++ {
			w := w
			done = append(done, th.Spawn(func(c api.Thread) {
				c.Tick(uint64(1000 * (w + 1)))
				c.Lock(mu) // both queue on mu while main holds it
				c.Store64(x+api.Addr(8*(w+1)), c.Load64(x))
				c.Unlock(mu)
			}))
		}
		for i := 0; i < 32; i++ {
			th.Store64(x+api.Addr(512+8*i), uint64(i)+7)
		}
		th.Tick(5000) // let both workers queue first
		th.Unlock(mu) // hands off to worker 0; worker 1 pre-merges the release
		for _, id := range done {
			th.Join(id)
		}
		th.Observe(th.Load64(x+8), th.Load64(x+16))
	}

	rep, err := New(DefaultOptions()).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.SlicesFilteredPremerged == 0 {
		t.Fatal("pre-merged slices were not filtered as such at the eventual acquire")
	}
	if rep.Stats.PrelockBytes == 0 {
		t.Fatal("no prelock pre-merge happened; scenario did not exercise §4.5")
	}
}

// offMonitorProg drives every decomposed monitor path at once: contended
// locks releasing multi-page slices (off-monitor diff + deferred apply +
// prelock), condvar handshakes (Wait's release and two-source wake acquire),
// barriers (under-monitor merge), atomics (drop-relock apply), and joins.
func offMonitorProg(th api.Thread) {
	data := th.Malloc(16 * 4096)
	flag := th.Malloc(8)
	sum := th.Malloc(8)
	mu := api.Addr(64)
	cond := api.Addr(128)
	bar := api.Addr(192)

	const workers = 4
	var ids []api.ThreadID
	for w := 0; w < workers; w++ {
		me := uint64(w + 1)
		ids = append(ids, th.Spawn(func(c api.Thread) {
			for round := 0; round < 6; round++ {
				c.Lock(mu)
				// Touch several pages so the off-monitor diff has real work.
				for p := 0; p < 6; p++ {
					base := data + api.Addr(4096*p)
					for i := 0; i < 16; i++ {
						a := base + api.Addr(8*i)
						c.Store64(a, c.Load64(a)+me*uint64(round+1))
					}
				}
				c.Unlock(mu)
				c.AtomicAdd64(sum, me)
				c.Tick(50 * me)
			}
			c.Barrier(bar, workers)
			if me == 1 {
				c.Lock(mu)
				for c.Load64(flag) == 0 {
					c.Wait(cond, mu)
				}
				c.Store64(data, c.Load64(data)+100)
				c.Unlock(mu)
			}
		}))
	}
	th.Tick(500000) // deliver the signal after worker 1 waits
	th.Lock(mu)
	th.Store64(flag, 1)
	th.Signal(cond)
	th.Unlock(mu)
	for _, id := range ids {
		th.Join(id)
	}
	th.Observe(th.Load64(data), th.Load64(data+4096), th.Load64(sum))
}

// TestOffMonitorDeterminism re-runs offMonitorProg across a range of
// GOMAXPROCS values and requires the synchronization trace and the output
// hash to be byte-identical every time. With real parallelism the
// off-monitor windows (page diffing, deferred slice application) and the
// woken threads' monitor re-entry genuinely interleave — this is the test
// that catches any monitor section admitted outside the deterministic turn
// order.
func TestOffMonitorDeterminism(t *testing.T) {
	opts := DefaultOptions()
	opts.Trace = true
	rt := New(opts)

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var firstTrace string
	var firstHash uint64
	runs := 0
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 5; i++ {
			rep, tr, err := rt.RunTraced(offMonitorProg)
			if err != nil {
				t.Fatal(err)
			}
			runs++
			if runs == 1 {
				firstTrace = tr.String()
				firstHash = rep.OutputHash
				continue
			}
			if rep.OutputHash != firstHash {
				t.Fatalf("output hash diverged at GOMAXPROCS=%d run %d", procs, i)
			}
			if s := tr.String(); s != firstTrace {
				t.Fatalf("trace diverged at GOMAXPROCS=%d run %d:\n--- first ---\n%s\n--- now ---\n%s",
					procs, i, firstTrace, s)
			}
		}
	}
	if runs < 20 {
		t.Fatalf("expected >= 20 runs, got %d", runs)
	}
}

type namedProgram struct {
	name string
	prog api.ThreadFunc
}

// benchmarkPrograms are the four programs bench/ times, at its sizes.
func benchmarkPrograms() []namedProgram {
	return []namedProgram{
		{"kv_server", workloads.ServerSeeded(workloads.Config{Threads: 4, Size: workloads.SizeTest}, workloads.DefaultServerSeed)},
		{"water_ns", workloads.WaterNS(workloads.Config{Threads: 4, Size: workloads.SizeSmall})},
		{"fft", workloads.FFT(workloads.Config{Threads: 4, Size: workloads.SizeMedium})},
		{"matmul", workloads.MatrixMultiply(workloads.Config{Threads: 4, Size: workloads.SizeMedium})},
	}
}

// TestOneMonitorSectionPerOperation: an operation enters the monitor once and
// a thread once more to exit, so on the four benchmark programs
// Stats.MonitorAcquires is the operation count plus the thread count. A
// section given up midway and re-entered counts twice and breaks the sum.
func TestOneMonitorSectionPerOperation(t *testing.T) {
	for _, p := range benchmarkPrograms() {
		rep, err := New(DefaultOptions()).Run(p.prog)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		s := &rep.Stats
		ops := s.Locks + s.Unlocks + s.Waits + s.Signals + s.Forks + s.Joins + s.Barriers + s.AtomicsOps
		if want := ops + uint64(rep.Threads); s.MonitorAcquires != want {
			t.Errorf("%s: %d monitor sections for %d operations and %d exits, want %d",
				p.name, s.MonitorAcquires, ops, rep.Threads, want)
		}
	}
}
