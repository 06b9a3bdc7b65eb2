package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"rfdet/internal/api"
	"rfdet/internal/mem"
	"rfdet/internal/workloads"
)

// TestGarbageCollectionTriggers constrains the metadata space so slice
// commits cross the 90% threshold and verifies that GC runs and that the
// program still computes correctly afterwards (§4.5, §5.4).
func TestGarbageCollectionTriggers(t *testing.T) {
	opts := DefaultOptions()
	opts.MetadataCapacity = 36409 // tiny: GC at 32 KiB
	rep := run(t, opts, func(th api.Thread) {
		buf := th.Malloc(64 * 1024)
		mu := api.Addr(64)
		id := th.Spawn(func(c api.Thread) {
			for round := 0; round < 50; round++ {
				c.Lock(mu)
				for i := 0; i < 512; i++ {
					c.Store64(buf+api.Addr(8*i), uint64(round*1000+i))
				}
				c.Unlock(mu)
			}
		})
		// The main thread keeps acquiring, so slices keep being merged into
		// both memories and become collectable.
		for round := 0; round < 50; round++ {
			th.Lock(mu)
			th.Tick(10)
			th.Unlock(mu)
		}
		th.Join(id)
		th.Observe(th.Load64(buf + 8*511))
	})
	if rep.Stats.GCCount == 0 {
		t.Fatal("expected at least one GC pass with a 64 KiB metadata space")
	}
	if got := rep.Observations[0][0]; got != 49*1000+511 {
		t.Fatalf("final value %d, want %d", got, 49*1000+511)
	}
	if rep.Stats.MetadataBytes == 0 || rep.Stats.MetadataCapacity != 36409 {
		t.Fatalf("metadata accounting missing: %+v", rep.Stats)
	}
}

// TestStatsUnderMetadataPressureIndependentOfHost: with a metadata space so
// small that commits cross the GC threshold, the passes still fall where the
// deterministic turn puts them. water-ns at test size runs ten times at each
// of GOMAXPROCS 1, 2, 4 and 8 in a 16 KiB space and in an 8 KiB one, where
// the committed slices alone fire the trigger, and every run at one capacity
// must agree on output hash, virtual time and every deterministic Stats field.
// A trigger that counted page snapshots, which are charged off the turn, made
// GCEmptyPasses, CollectScanned, SlicesFilteredLow and SliceListLen follow
// the host schedule at both capacities. Under -race, where a run takes 30
// times as long, each cell runs twice.
func TestStatsUnderMetadataPressureIndependentOfHost(t *testing.T) {
	runs := 10
	if raceBuild() {
		runs = 2
	}
	prog := workloads.WaterNS(workloads.Config{Threads: 4, Size: workloads.SizeTest})
	type result struct {
		output, vtime uint64
		stats         api.Stats
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, capacity := range []uint64{16 << 10, 8 << 10} {
		opts := DefaultOptions()
		opts.MetadataCapacity = capacity
		var first result
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			for i := 0; i < runs; i++ {
				rep := run(t, opts, prog)
				got := result{rep.OutputHash, rep.VirtualTime, rep.Stats.Deterministic()}
				if first == (result{}) {
					first = got
				} else if got != first {
					t.Fatalf("%d KiB, P=%d run %d differs from the first run:\n got %+v\nwant %+v",
						capacity>>10, procs, i, got, first)
				}
			}
		}
		if capacity == 8<<10 && first.stats.GCCount+first.stats.GCEmptyPasses == 0 {
			t.Fatal("no GC pass in an 8 KiB metadata space")
		}
	}
}

// TestEmptyGCPassesLeaveCollectionAlone: a GC pass that frees nothing trims no
// list and voids no collection window. water-ns at test size frees nothing in
// a small metadata space (GCCount 0), so it must scan exactly what it scans in
// the default space, where no pass fires, and compute the same result. At
// 8 KiB the trigger fires at nearly every commit; a pass that forgot every
// reader's mark made the next collections rescan their whole lists, and a
// trigger that re-ran the pass at an unchanged frontier ran 18 empty passes.
func TestEmptyGCPassesLeaveCollectionAlone(t *testing.T) {
	prog := workloads.WaterNS(workloads.Config{Threads: 4, Size: workloads.SizeTest})
	base := run(t, DefaultOptions(), prog)
	for _, capacity := range []uint64{64 << 10, 16 << 10, 8 << 10} {
		opts := DefaultOptions()
		opts.MetadataCapacity = capacity
		rep := run(t, opts, prog)
		if rep.Stats.GCCount != 0 {
			t.Fatalf("%d KiB: GCCount = %d, want 0 (this test needs passes that free nothing)", capacity>>10, rep.Stats.GCCount)
		}
		if capacity == 8<<10 && rep.Stats.GCEmptyPasses != 1 {
			t.Fatalf("8 KiB: %d empty GC passes, want 1: the frontier never moves, so one pass at it is all", rep.Stats.GCEmptyPasses)
		}
		if rep.Stats.CollectScanned != base.Stats.CollectScanned {
			t.Errorf("%d KiB: CollectScanned = %d, default capacity scans %d", capacity>>10, rep.Stats.CollectScanned, base.Stats.CollectScanned)
		}
		if rep.OutputHash != base.OutputHash || rep.VirtualTime != base.VirtualTime {
			t.Errorf("%d KiB: output %x at virtual time %d, default capacity %x at %d",
				capacity>>10, rep.OutputHash, rep.VirtualTime, base.OutputHash, base.VirtualTime)
		}
	}
}

// TestMemoryFootprintEquations checks the §5.4 equations: RFDet's footprint
// is N*SharedMemory + MetadataSpaceMemory.
func TestMemoryFootprintEquations(t *testing.T) {
	rep := run(t, DefaultOptions(), func(th api.Thread) {
		_ = th.Malloc(100 * 1024) // shared allocation
		var ids []api.ThreadID
		for i := 0; i < 3; i++ {
			ids = append(ids, th.Spawn(func(c api.Thread) { c.Tick(10) }))
		}
		for _, id := range ids {
			th.Join(id)
		}
	})
	s := rep.Stats
	if s.SharedMemBytes < 100*1024 {
		t.Fatalf("SharedMemBytes = %d, want ≥ 100 KiB", s.SharedMemBytes)
	}
	want := 4*s.SharedMemBytes + s.MetadataBytes // N = 4 concurrent threads
	if s.RuntimeMemBytes != want {
		t.Fatalf("RuntimeMemBytes = %d, want N*shared+metadata = %d", s.RuntimeMemBytes, want)
	}
}

// TestSliceMergingCounter verifies §4.5 slice merging: repeated
// acquire/release of the same variable by one thread merges slices instead
// of cutting them.
func TestSliceMergingCounter(t *testing.T) {
	prog := func(th api.Thread) {
		a := th.Malloc(8)
		scratch := th.Malloc(8)
		mu := api.Addr(64)
		id := th.Spawn(func(c api.Thread) {
			for i := 0; i < 20; i++ {
				c.Lock(mu)
				c.Store64(a, uint64(i))
				c.Unlock(mu)
				// Work between the release and the re-acquire: without
				// merging this becomes its own slice; with merging it is
				// folded into the next critical section's slice.
				c.Store64(scratch, uint64(i)*3)
			}
		})
		th.Join(id)
		th.Observe(th.Load64(a), th.Load64(scratch))
	}
	with := run(t, Options{SliceMerging: true}, prog)
	without := run(t, Options{}, prog)
	if with.Stats.SlicesMerged == 0 {
		t.Fatal("slice merging never fired on a re-acquire-heavy program")
	}
	if without.Stats.SlicesMerged != 0 {
		t.Fatal("slice merging fired while disabled")
	}
	if with.Stats.SlicesCreated >= without.Stats.SlicesCreated {
		t.Fatalf("merging should reduce slices: %d vs %d",
			with.Stats.SlicesCreated, without.Stats.SlicesCreated)
	}
	if with.Observations[0][0] != 19 || without.Observations[0][0] != 19 ||
		with.Observations[0][1] != 57 || without.Observations[0][1] != 57 {
		t.Fatal("merging changed results")
	}
}

// TestPrelockMovesPropagationOffCriticalPath verifies §4.5 prelock: with a
// heavily contended lock, a large share of propagated bytes is pre-merged
// while blocked (the paper reports ~80%).
func TestPrelockMovesPropagationOffCriticalPath(t *testing.T) {
	prog := func(th api.Thread) {
		buf := th.Malloc(32 * 1024)
		mu := api.Addr(64)
		var ids []api.ThreadID
		for w := 0; w < 3; w++ {
			ids = append(ids, th.Spawn(func(c api.Thread) {
				for round := 0; round < 10; round++ {
					c.Lock(mu)
					for i := 0; i < 1024; i++ {
						c.Store64(buf+api.Addr(8*i), c.Load64(buf+api.Addr(8*i))+1)
					}
					c.Unlock(mu)
				}
			}))
		}
		for _, id := range ids {
			th.Join(id)
		}
		th.Observe(th.Load64(buf))
	}
	opts := Options{Prelock: true}
	rep := run(t, opts, prog)
	if rep.Observations[0][0] != 30 {
		t.Fatalf("counter = %d, want 30", rep.Observations[0][0])
	}
	if rep.Stats.PrelockBytes == 0 {
		t.Fatal("prelock never pre-merged anything on a contended lock")
	}
	frac := float64(rep.Stats.PrelockBytes) / float64(rep.Stats.BytesPropagated)
	if frac < 0.3 {
		t.Fatalf("prelock pre-merged only %.0f%% of propagated bytes", 100*frac)
	}
	// The same program without prelock must compute the same result.
	base := run(t, Options{}, prog)
	if base.Observations[0][0] != 30 {
		t.Fatal("baseline result wrong")
	}
	if base.Stats.PrelockBytes != 0 {
		t.Fatal("prelock stats nonzero while disabled")
	}
}

// TestEagerPrelockPremerge verifies the prelock release path on the eager
// stack (LazyWrites off): on a heavily contended lock whose releases each
// commit several slices (the atomic op splits every critical section into
// multiple slices), every queued waiter pre-merges each release's list into
// its own space at once, through a write plan that coalesces the slices'
// overlapping writes. Six workers keep the grant queue deep, so most of the
// propagation happens in pre-merges, into blocked waiters.
func TestEagerPrelockPremerge(t *testing.T) {
	prog := func(th api.Thread) {
		buf := th.Malloc(32 * 1024)
		atom := th.Malloc(8)
		mu := api.Addr(64)
		var ids []api.ThreadID
		for w := 0; w < 6; w++ {
			ids = append(ids, th.Spawn(func(c api.Thread) {
				for round := 0; round < 8; round++ {
					c.Lock(mu)
					// The atomic commits the current slice and publishes a
					// micro-slice, so the eventual unlock releases >= 2
					// fresh slices — enough to build a plan for.
					c.AtomicAdd64(atom, 1)
					for i := 0; i < 512; i++ {
						c.Store64(buf+api.Addr(8*i), c.Load64(buf+api.Addr(8*i))+1)
					}
					c.Unlock(mu)
				}
			}))
		}
		for _, id := range ids {
			th.Join(id)
		}
		th.Observe(th.Load64(buf), th.Load64(atom))
	}
	rep := run(t, Options{Prelock: true}, prog)
	if rep.Observations[0][0] != 48 || rep.Observations[0][1] != 48 {
		t.Fatalf("observations = %v, want [48 48]", rep.Observations[0])
	}
	if rep.Stats.PrelockBytes == 0 {
		t.Fatal("no waiter pre-merged a release on a contended chain")
	}
	if rep.Stats.BytesCoalescedAway == 0 {
		t.Fatal("overlapping propagated writes were never coalesced")
	}
	if rep.Stats.CollectScanned == 0 || rep.Stats.SliceListLen == 0 {
		t.Fatal("collection counters never moved")
	}
}

// TestLazyWritesDeferApplication verifies §4.5 lazy writes: propagated
// modifications to never-accessed pages are pended, and pended runs
// coalesce.
func TestLazyWritesDeferApplication(t *testing.T) {
	prog := func(th api.Thread) {
		// Two regions: the child updates both; the parent only ever reads
		// region A, so region B's propagated updates should stay pended
		// until the final flush.
		regionA := th.Malloc(mem.PageSize)
		regionB := th.Malloc(mem.PageSize)
		mu := api.Addr(64)
		id := th.Spawn(func(c api.Thread) {
			for round := 0; round < 20; round++ {
				c.Lock(mu)
				c.Store64(regionA, uint64(round))
				for i := 0; i < 64; i++ {
					c.Store64(regionB+api.Addr(8*i), uint64(round*100+i))
				}
				c.Unlock(mu)
			}
		})
		for round := 0; round < 20; round++ {
			th.Lock(mu)
			_ = th.Load64(regionA) // touches region A only
			th.Unlock(mu)
		}
		th.Join(id)
		th.Observe(th.Load64(regionA), th.Load64(regionB+8*63))
	}
	rep := run(t, Options{LazyWrites: true}, prog)
	if rep.Stats.LazyPendingApplied == 0 {
		t.Fatal("lazy writes never pended/applied anything")
	}
	if rep.Stats.LazyRunsElided == 0 {
		t.Fatal("expected overlapping pended updates to coalesce")
	}
	if obs := rep.Observations[0]; obs[0] != 19 || obs[1] != 19*100+63 {
		t.Fatalf("lazy writes broke results: %v", obs)
	}
}

// TestPFMonitorCounters verifies that the page-protection monitor actually
// pays protect-alls and faults, and the CI monitor does not.
func TestPFMonitorCounters(t *testing.T) {
	prog := func(th api.Thread) {
		buf := th.Malloc(8 * mem.PageSize)
		mu := api.Addr(64)
		id := th.Spawn(func(c api.Thread) {
			for round := 0; round < 5; round++ {
				c.Lock(mu)
				for p := 0; p < 8; p++ {
					c.Store64(buf+api.Addr(p*mem.PageSize), uint64(round))
				}
				c.Unlock(mu)
			}
		})
		th.Join(id)
		th.Observe(th.Load64(buf))
	}
	pf := run(t, Options{Monitor: MonitorPF}, prog)
	ci := run(t, Options{Monitor: MonitorCI}, prog)
	if pf.Stats.PageFaults == 0 || pf.Stats.PageProtects == 0 {
		t.Fatalf("pf monitor counters empty: %+v", pf.Stats)
	}
	if ci.Stats.PageFaults != 0 || ci.Stats.PageProtects != 0 {
		t.Fatalf("ci monitor paid protection costs: %+v", ci.Stats)
	}
	if pf.Stats.StoresWithCopy == 0 || ci.Stats.StoresWithCopy == 0 {
		t.Fatal("both monitors must snapshot written pages")
	}
	if pf.OutputHash == 0 || pf.Observations[0][0] != ci.Observations[0][0] {
		t.Fatal("monitors disagree on results")
	}
}

// TestMainPreForkUnmonitored verifies §4.1: the main thread's modifications
// before the first pthread_create are not monitored (no snapshots), yet the
// children still see them through memory inheritance.
func TestMainPreForkUnmonitored(t *testing.T) {
	rep := run(t, DefaultOptions(), func(th api.Thread) {
		big := th.Malloc(64 * mem.PageSize)
		for p := 0; p < 64; p++ {
			th.Store64(big+api.Addr(p*mem.PageSize), uint64(p)+1)
		}
		preForkCopies := uint64(0) // snapshot count must still be 0 here
		id := th.Spawn(func(c api.Thread) {
			var sum uint64
			for p := 0; p < 64; p++ {
				sum += c.Load64(big + api.Addr(p*mem.PageSize))
			}
			c.Observe(sum)
		})
		th.Join(id)
		_ = preForkCopies
	})
	if got := rep.Observations[1][0]; got != 64*65/2 {
		t.Fatalf("child sum = %d, want %d", got, 64*65/2)
	}
	// The 64 pre-fork page writes must not have produced snapshots.
	if rep.Stats.StoresWithCopy != 0 {
		t.Fatalf("pre-fork stores were monitored: %d copies", rep.Stats.StoresWithCopy)
	}
}

// TestMisuseDiagnostics covers the deterministic failure paths: each misuse
// fails the run with its full message. A misuse caught inside the monitor
// runs a second time with peers blocked in Lock and in Join when it lands; the
// abort must wake them, so the run returns the same error within a deadline
// and leaves no goroutine behind.
func TestMisuseDiagnostics(t *testing.T) {
	cases := []struct {
		name      string
		prog      api.ThreadFunc
		want      string
		inMonitor bool
	}{
		{"recursive lock", func(th api.Thread) {
			th.Lock(64)
			th.Lock(64)
		}, "rfdet: thread 0: recursive lock of mutex 0x40", true},
		{"unlock unheld", func(th api.Thread) {
			th.Unlock(64)
		}, "rfdet: thread 0: unlock of mutex 0x40 not held by it", true},
		{"wait without mutex", func(th api.Thread) {
			th.Wait(128, 64)
		}, "rfdet: thread 0: cond wait with mutex 0x40 not held", true},
		{"join self", func(th api.Thread) {
			th.Join(0)
		}, "rfdet: thread 0: join of itself", true},
		{"join unknown", func(th api.Thread) {
			th.Join(42)
		}, "rfdet: thread 0: join of unknown thread 42", true},
		{"bad free", func(th api.Thread) {
			th.Free(123)
		}, "rfdet: thread 0: alloc: free of non-heap address 0x7b", false},
		{"barrier zero", func(th api.Thread) {
			th.Barrier(64, 0)
		}, "rfdet: thread 0: barrier with count 0", false},
		{"panic in thread", func(th api.Thread) {
			panic("user bug")
		}, "rfdet: thread 0 panicked: user bug", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkMisuse(t, tc.prog, tc.want)
		})
		if tc.inMonitor {
			t.Run(tc.name+" with blocked peers", func(t *testing.T) {
				checkMisuse(t, withBlockedPeers(tc.prog), tc.want)
			})
		}
	}
}

// withBlockedPeers runs misuse on thread 0 once two peers have blocked: one
// in Lock of a mutex thread 0 holds, one in Join of thread 0.
func withBlockedPeers(misuse api.ThreadFunc) api.ThreadFunc {
	return func(th api.Thread) {
		const held = api.Addr(256)
		th.Lock(held)
		th.Spawn(func(c api.Thread) { c.Lock(held) })
		th.Spawn(func(c api.Thread) { c.Join(0) })
		th.Tick(100000) // both peers take their turns first
		misuse(th)
	}
}

// TestPanicInsideMonitorUnwinds: a runtime fault inside a monitor section —
// here Lock's insert into a sync-variable table the body cleared under the
// monitor — must fail the run like a panic anywhere else, not deadlock the
// panicking thread on the monitor it still holds. The peer blocked in Join is
// there to be unwound.
func TestPanicInsideMonitorUnwinds(t *testing.T) {
	checkMisuse(t, func(th api.Thread) {
		th.Spawn(func(c api.Thread) {
			c.Join(0) // blocked on main, which never exits normally
		})
		th.Tick(100000) // let the joiner block
		e := th.(*thread).exec
		e.mu.Lock()
		e.syncvars = nil
		e.mu.Unlock()
		th.Lock(64)
	}, "rfdet: thread 0 panicked: assignment to entry in nil map")
}

// checkMisuse runs prog and requires the error want within a deadline, and
// the goroutine count back at its baseline once the run has returned.
func checkMisuse(t *testing.T, prog api.ThreadFunc, want string) {
	t.Helper()
	if _, err := runWithin(t, DefaultOptions(), prog); err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}

// runWithin runs prog under opts and returns its result within a deadline,
// once the goroutine count is back at its baseline.
func runWithin(t *testing.T, opts Options, prog api.ThreadFunc) (*api.Report, error) {
	t.Helper()
	return runOn(t, New(opts), prog)
}

// runOn is runWithin on the Runtime rt.
func runOn(t *testing.T, rt *Runtime, prog api.ThreadFunc) (*api.Report, error) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	type result struct {
		rep *api.Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := rt.Run(prog)
		done <- result{rep, err}
	}()
	var res result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("no result after 10s: a thread was left behind. Goroutines:\n%s", buf[:runtime.Stack(buf, true)])
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after the run, %d before. Goroutines:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
	return res.rep, res.err
}

// TestConcurrentExecutionsShareOneRuntime: executions running at once on one
// Runtime share its spare thread scratch, and each still gives its pins.
// make race runs it, where an execution that touched another's scratch shows.
func TestConcurrentExecutionsShareOneRuntime(t *testing.T) {
	cfg := workloads.Config{Threads: 4, Size: workloads.SizeTest}
	progs := []struct {
		name          string
		prog          api.ThreadFunc
		output, vtime uint64
	}{
		{"server", workloads.Server(cfg), 0x4e54dc625c3bc116, 469638},
		{"fft", workloads.FFT(cfg), 0x2c11c3233a156078, 85814},
	}
	rt := New(DefaultOptions())
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				p := progs[(g+i)%len(progs)]
				rep, err := rt.Run(p.prog)
				if err != nil {
					t.Errorf("%s: %v", p.name, err)
					return
				}
				if rep.OutputHash != p.output || rep.VirtualTime != p.vtime {
					t.Errorf("%s: output=%#x vtime=%d, seed output=%#x vtime=%d", p.name, rep.OutputHash, rep.VirtualTime, p.output, p.vtime)
				}
			}
		}()
	}
	wg.Wait()
}

// TestReportFields sanity-checks the report plumbing.
func TestReportFields(t *testing.T) {
	rep := run(t, DefaultOptions(), func(th api.Thread) {
		a := th.Malloc(8)
		th.Store64(a, 1)
		id := th.Spawn(func(c api.Thread) { c.Observe(7) })
		th.Join(id)
		th.Observe(9)
	})
	if rep.Threads != 2 {
		t.Fatalf("Threads = %d", rep.Threads)
	}
	if rep.VirtualTime == 0 {
		t.Fatal("VirtualTime not set")
	}
	if rep.Elapsed <= 0 {
		t.Fatal("Elapsed not set")
	}
	if len(rep.Observations) != 2 || rep.Observations[1][0] != 7 || rep.Observations[0][0] != 9 {
		t.Fatalf("observations: %v", rep.Observations)
	}
	if rep.Stats.Forks != 1 || rep.Stats.Joins != 1 {
		t.Fatalf("fork/join stats: %+v", rep.Stats)
	}
}

// TestAtomicCASSemantics exercises the §4.6 extension's compare-and-swap,
// including contention resolved deterministically.
func TestAtomicCASSemantics(t *testing.T) {
	rep := run(t, DefaultOptions(), func(th api.Thread) {
		word := th.Malloc(8)
		winner := th.Malloc(8)
		var ids []api.ThreadID
		for w := 0; w < 4; w++ {
			me := uint64(w + 1)
			ids = append(ids, th.Spawn(func(c api.Thread) {
				if c.AtomicCAS64(word, 0, me) {
					// Exactly one thread wins the race — deterministically.
					c.Store64(winner, me) // safe: only the winner writes
				}
			}))
		}
		for _, id := range ids {
			th.Join(id)
		}
		th.Observe(th.Load64(word), th.Load64(winner))
	})
	obs := rep.Observations[0]
	if obs[0] == 0 || obs[0] != obs[1] {
		t.Fatalf("CAS race resolved inconsistently: %v", obs)
	}
	// Re-run: the same thread must win every time.
	again := run(t, DefaultOptions(), func(th api.Thread) { th.Observe(1) })
	_ = again
	var first uint64
	for i := 0; i < 3; i++ {
		r := run(t, DefaultOptions(), func(th api.Thread) {
			word := th.Malloc(8)
			var ids []api.ThreadID
			for w := 0; w < 4; w++ {
				me := uint64(w + 1)
				ids = append(ids, th.Spawn(func(c api.Thread) {
					c.AtomicCAS64(word, 0, me)
				}))
			}
			for _, id := range ids {
				th.Join(id)
			}
			th.Observe(th.Load64(word))
		})
		if i == 0 {
			first = r.Observations[0][0]
		} else if r.Observations[0][0] != first {
			t.Fatal("CAS winner nondeterministic")
		}
	}
}

// TestSlicePropagationStats verifies the lowerlimit filter actually fires
// (redundant propagation is avoided, §4.3).
func TestSlicePropagationStats(t *testing.T) {
	rep := run(t, Options{}, func(th api.Thread) {
		a := th.Malloc(8)
		mu := api.Addr(64)
		id := th.Spawn(func(c api.Thread) {
			for i := 0; i < 10; i++ {
				c.Lock(mu)
				c.Store64(a, uint64(i))
				c.Unlock(mu)
			}
		})
		for i := 0; i < 10; i++ {
			th.Lock(mu)
			_ = th.Load64(a)
			th.Unlock(mu)
		}
		th.Join(id)
	})
	if rep.Stats.SlicesPropagated == 0 {
		t.Fatal("no propagation on a lock-sharing program")
	}
	if rep.Stats.SlicesFilteredLow == 0 {
		t.Fatal("the lowerlimit (redundant propagation) filter never fired")
	}
}
