// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark executes real workload runs and reports the
// deterministic virtual-time makespan as the "vtime-ns" metric — the number
// every figure in the paper is a ratio of — alongside the host wall time.
//
//	go test -bench=. -benchmem                      # everything, test size
//	go test -bench BenchmarkFigure7 -benchtime 1x   # one figure
//
// The rendered artifacts themselves (normalized tables matching the paper's
// layout) come from `go run ./cmd/rfdet-bench all`.
package rfdet_test

import (
	"fmt"
	"testing"

	"rfdet"
	"rfdet/internal/replay"
	"rfdet/internal/trace"
	"rfdet/internal/workloads"
)

// benchSize keeps `go test -bench=.` affordable; cmd/rfdet-bench defaults
// to the larger "small" size for the rendered tables.
const benchSize = workloads.SizeTest

// benchRuntimes is the Figure 7 runtime set.
func benchRuntimes() []rfdet.Runtime {
	return []rfdet.Runtime{
		rfdet.NewPThreads(),
		rfdet.NewDThreads(),
		rfdet.NewPF(),
		rfdet.NewCI(),
	}
}

func runWorkload(b *testing.B, rt rfdet.Runtime, name string, threads int, size workloads.Size) {
	b.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	var vt uint64
	for i := 0; i < b.N; i++ {
		rep, err := rt.Run(w.Prog(workloads.Config{Threads: threads, Size: size}))
		if err != nil {
			b.Fatalf("%s on %s: %v", name, rt.Name(), err)
		}
		vt = rep.VirtualTime
	}
	b.ReportMetric(float64(vt), "vtime-ns")
}

// BenchmarkFigure7 measures every benchmark × runtime cell of Figure 7
// (execution time normalized to pthreads, 4 threads). Normalize the
// "vtime-ns" metric of each runtime against the pthreads row.
func BenchmarkFigure7(b *testing.B) {
	for _, name := range workloads.Names() {
		for _, rt := range benchRuntimes() {
			b.Run(fmt.Sprintf("%s/%s", name, rt.Name()), func(b *testing.B) {
				runWorkload(b, rt, name, 4, benchSize)
			})
		}
	}
}

// BenchmarkTable1 exercises the profiled RFDet-ci executions behind Table 1
// and reports the headline counters as metrics.
func BenchmarkTable1(b *testing.B) {
	for _, name := range workloads.Names() {
		b.Run(name, func(b *testing.B) {
			w, _ := workloads.ByName(name)
			rt := rfdet.NewCI()
			var st rfdet.Stats
			for i := 0; i < b.N; i++ {
				rep, err := rt.Run(w.Prog(workloads.Config{Threads: 4, Size: benchSize}))
				if err != nil {
					b.Fatal(err)
				}
				st = rep.Stats
			}
			b.ReportMetric(float64(st.Locks), "locks")
			b.ReportMetric(float64(st.MemOps()), "memops")
			b.ReportMetric(float64(st.StoresWithCopy), "stores-w-copy")
			b.ReportMetric(float64(st.RuntimeMemBytes), "rfdet-mem-bytes")
			b.ReportMetric(float64(st.GCCount), "gc")
		})
	}
}

// BenchmarkFigure8 measures the scalability series (2, 4, 8 threads) of
// RFDet-ci and pthreads; speedups are vtime(2)/vtime(n). As in the paper,
// dedup and ferret are omitted and lu-con represents lu-non.
func BenchmarkFigure8(b *testing.B) {
	skip := map[string]bool{"dedup": true, "ferret": true, "lu-non": true}
	for _, name := range workloads.Names() {
		if skip[name] {
			continue
		}
		for _, rt := range []rfdet.Runtime{rfdet.NewPThreads(), rfdet.NewCI()} {
			for _, n := range []int{2, 4, 8} {
				b.Run(fmt.Sprintf("%s/%s/threads=%d", name, rt.Name(), n), func(b *testing.B) {
					runWorkload(b, rt, name, n, benchSize)
				})
			}
		}
	}
}

// BenchmarkFigure9 measures the prelock / lazy-writes optimization study on
// the SPLASH-2 subset: speedup = vtime(baseline)/vtime(variant).
func BenchmarkFigure9(b *testing.B) {
	splash := []string{"ocean", "water-ns", "water-sp", "fft", "radix", "lu-con", "lu-non"}
	variants := []struct {
		name string
		opts rfdet.Options
	}{
		{"baseline", rfdet.Options{SliceMerging: true}},
		{"prelock", rfdet.Options{SliceMerging: true, Prelock: true}},
		{"lazywrites", rfdet.Options{SliceMerging: true, LazyWrites: true}},
		{"both", rfdet.Options{SliceMerging: true, Prelock: true, LazyWrites: true}},
	}
	for _, name := range splash {
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/%s", name, v.name), func(b *testing.B) {
				runWorkload(b, rfdet.New(v.opts), name, 4, benchSize)
			})
		}
	}
}

// BenchmarkRacey measures the §5.1 stress test itself and verifies
// determinism across all b.N iterations while doing so.
func BenchmarkRacey(b *testing.B) {
	for _, threads := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			w, _ := workloads.ByName("racey")
			rt := rfdet.NewCI()
			var first uint64
			for i := 0; i < b.N; i++ {
				rep, err := rt.Run(w.Prog(workloads.Config{Threads: threads, Size: benchSize}))
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					first = rep.OutputHash
				} else if rep.OutputHash != first {
					b.Fatal("racey produced different outputs across iterations")
				}
			}
		})
	}
}

// BenchmarkBarrierAblation quantifies the cost of global quantum barriers
// (Figure 1's design) directly: an imbalanced program — one compute-heavy
// thread, three lock-synchronizing threads sharing one lock — under RFDet
// (no global barriers), RCDC (fast path for same-thread re-acquires only:
// §3.1's "two threads cannot acquire the same lock without a global
// barrier"), DThreads (fence per sync) and CoreDet (fence per quantum).
// This regenerates the motivation for the paper's §3.1 argument.
func BenchmarkBarrierAblation(b *testing.B) {
	prog := func(t rfdet.Thread) {
		ctr := t.Malloc(8)
		mu := rfdet.Addr(64)
		heavy := t.Spawn(func(t rfdet.Thread) {
			t.Tick(300000) // long oblivious computation: T2 in Figure 1
		})
		var lockers []rfdet.ThreadID
		for i := 0; i < 3; i++ {
			lockers = append(lockers, t.Spawn(func(t rfdet.Thread) {
				for k := 0; k < 50; k++ {
					t.Lock(mu)
					t.Store64(ctr, t.Load64(ctr)+1)
					t.Unlock(mu)
					t.Tick(100)
				}
			}))
		}
		t.Join(heavy)
		for _, id := range lockers {
			t.Join(id)
		}
		t.Observe(t.Load64(ctr))
	}
	for _, rt := range []rfdet.Runtime{rfdet.NewCI(), rfdet.NewRCDC(10000), rfdet.NewDThreads(), rfdet.NewCoreDet(10000)} {
		b.Run(rt.Name(), func(b *testing.B) {
			var vt uint64
			for i := 0; i < b.N; i++ {
				rep, err := rt.Run(prog)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Observations[0][0] != 150 {
					b.Fatalf("counter = %d, want 150", rep.Observations[0][0])
				}
				vt = rep.VirtualTime
			}
			b.ReportMetric(float64(vt), "vtime-ns")
		})
	}
}

// BenchmarkQuantumSweep shows the CoreDet-style quantum-tuning dilemma the
// paper's §2 describes: small quanta mean frequent global barriers (fence
// overhead), large quanta mean long waits for synchronization (imbalance).
// RFDet has no such knob because it has no barriers.
func BenchmarkQuantumSweep(b *testing.B) {
	// linear_regression: long synchronization-free compute, so the quantum
	// alone decides how many global barriers the CoreDet-style runtime
	// inserts.
	w, err := workloads.ByName("linear_regression")
	if err != nil {
		b.Fatal(err)
	}
	cfg := workloads.Config{Threads: 4, Size: workloads.SizeSmall}
	for _, q := range []uint64{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("coredet-q%d", q), func(b *testing.B) {
			runWorkloadW(b, rfdet.NewCoreDet(q), w, cfg)
		})
	}
	b.Run("rfdet-ci", func(b *testing.B) {
		runWorkloadW(b, rfdet.NewCI(), w, cfg)
	})
}

func runWorkloadW(b *testing.B, rt rfdet.Runtime, w workloads.Workload, cfg workloads.Config) {
	b.Helper()
	var vt uint64
	for i := 0; i < b.N; i++ {
		rep, err := rt.Run(w.Prog(cfg))
		if err != nil {
			b.Fatal(err)
		}
		vt = rep.VirtualTime
	}
	b.ReportMetric(float64(vt), "vtime-ns")
}

// BenchmarkMetadataGrowth measures the §5.4 space/time tradeoff: the
// metadata-space high-water of a program with a silent (never-acquiring)
// thread, whose clock pins the GC frontier until it exits.
func BenchmarkMetadataGrowth(b *testing.B) {
	prog := func(t rfdet.Thread) {
		buf := t.Malloc(64 * 1024)
		mu := rfdet.Addr(64)
		chatty := t.Spawn(func(t rfdet.Thread) {
			for round := 0; round < 40; round++ {
				t.Lock(mu)
				for i := 0; i < 512; i++ {
					t.Store64(buf+rfdet.Addr(8*i), uint64(round+i))
				}
				t.Unlock(mu)
			}
		})
		silent := t.Spawn(func(t rfdet.Thread) {
			t.Tick(200000)
		})
		for round := 0; round < 40; round++ {
			t.Lock(mu)
			t.Tick(1600)
			t.Unlock(mu)
		}
		t.Join(chatty)
		t.Join(silent)
	}
	opts := rfdet.Options{SliceMerging: true, MetadataCapacity: 72818} // GC at 64 KiB
	var hw uint64
	for i := 0; i < b.N; i++ {
		rep, err := rfdet.New(opts).Run(prog)
		if err != nil {
			b.Fatal(err)
		}
		hw = rep.Stats.MetadataBytes
	}
	b.ReportMetric(float64(hw), "metadata-bytes")
}

// BenchmarkMonitorContention stresses the decomposed global monitor: four
// threads exchange multi-page slices through one contended lock plus a
// shared atomic counter, so page diffing and slice application dominate and
// any work left under the monitor serializes the run. Wall time (ns/op) is
// the headline; monitor-acquires and the off-monitor diff-ns/apply-ns
// breakdown (reportSpanNanos) are reported so regressions can be attributed.
func BenchmarkMonitorContention(b *testing.B) {
	runMonitorContention(b, rfdet.DefaultOptions())
}

// BenchmarkMonitorContentionPhaseTrace is the identical program with phase
// tracing enabled — the overhead comparison the tentpole's ≤2% budget is
// measured against (see EXPERIMENTS.md).
func BenchmarkMonitorContentionPhaseTrace(b *testing.B) {
	opts := rfdet.DefaultOptions()
	opts.PhaseTrace = true
	runMonitorContention(b, opts)
}

// BenchmarkMonitorContentionRaceDetect is the identical program with the
// happens-before race detector enabled — the detection-overhead comparison
// for EXPERIMENTS.md (read tracking + per-slice access recording + end-of-run
// analysis, all off the deterministic path).
func BenchmarkMonitorContentionRaceDetect(b *testing.B) {
	opts := rfdet.DefaultOptions()
	opts.RaceDetect = true
	runMonitorContention(b, opts)
}

func monitorContentionProg(t rfdet.Thread) {
	const (
		workers = 4
		rounds  = 30
		pages   = 8
	)
	data := t.Malloc(pages * 4096)
	sum := t.Malloc(8)
	mu := rfdet.Addr(64)
	var ids []rfdet.ThreadID
	for w := 0; w < workers; w++ {
		me := uint64(w + 1)
		ids = append(ids, t.Spawn(func(t rfdet.Thread) {
			for round := 0; round < rounds; round++ {
				t.Lock(mu)
				for p := 0; p < pages; p++ {
					base := data + rfdet.Addr(4096*p)
					for i := 0; i < 64; i++ {
						a := base + rfdet.Addr(8*i)
						t.Store64(a, t.Load64(a)+me*0x0101010101010101)
					}
				}
				t.Unlock(mu)
				t.AtomicAdd64(sum, me)
				t.Tick(100 * me)
			}
		}))
	}
	for _, id := range ids {
		t.Join(id)
	}
	t.Observe(t.Load64(data), t.Load64(sum))
}

func runMonitorContention(b *testing.B, opts rfdet.Options) {
	rt := rfdet.New(opts)
	var st rfdet.Stats
	var first uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := rt.Run(monitorContentionProg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first = rep.OutputHash
		} else if rep.OutputHash != first {
			b.Fatal("contention benchmark nondeterministic across iterations")
		}
		st = rep.Stats
	}
	b.ReportMetric(float64(st.MonitorAcquires), "monitor-acquires")
	reportSpanNanos(b, opts, monitorContentionProg)
}

// reportSpanNanos runs prog once more under opts with phase tracing on,
// outside the timed loop, and reports that run's host time in slice-end
// diffing ("diff-ns") and in slice application, pre-merges included
// ("apply-ns"), from its phase spans.
func reportSpanNanos(b *testing.B, opts rfdet.Options, prog rfdet.ThreadFunc) {
	b.StopTimer()
	opts.PhaseTrace = true
	rep, err := rfdet.New(opts).Run(prog)
	if err != nil {
		b.Fatal(err)
	}
	tot := rep.Phases.PhaseTotals()
	b.ReportMetric(float64(tot[trace.PhaseDiff]), "diff-ns")
	b.ReportMetric(float64(tot[trace.PhaseApply]+tot[trace.PhasePremerge]), "apply-ns")
}

// runDefaultStack runs prog b.N times on the default stack, failing if the
// output hash changes between iterations, and returns the last run's stats.
func runDefaultStack(b *testing.B, prog rfdet.ThreadFunc) rfdet.Stats {
	rt := rfdet.New(rfdet.DefaultOptions())
	var st rfdet.Stats
	var first uint64
	for i := 0; i < b.N; i++ {
		rep, err := rt.Run(prog)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first = rep.OutputHash
		} else if rep.OutputHash != first {
			b.Fatal("benchmark program nondeterministic across iterations")
		}
		st = rep.Stats
	}
	return st
}

// BenchmarkSparseWriteDiff quantifies the sub-page dirty-tracking win: four
// threads each touch many pages per slice but write only 16 bytes per page,
// the sparse-write pattern (scattered updates to a large shared structure)
// where full-page diffing would do ~256× more byte comparisons than the
// writes justify. "diff-ns" is the wall time one traced run spends in
// slice-end diffing, "scanned-bytes"/"skipped-bytes" the Stats counters behind
// mem.diff_skip_ratio.
func BenchmarkSparseWriteDiff(b *testing.B) {
	const (
		workers = 4
		rounds  = 20
		pages   = 64
	)
	prog := func(t rfdet.Thread) {
		data := t.Malloc(pages * 4096)
		mu := rfdet.Addr(64)
		var ids []rfdet.ThreadID
		for w := 0; w < workers; w++ {
			me := uint64(w + 1)
			ids = append(ids, t.Spawn(func(t rfdet.Thread) {
				for round := 0; round < rounds; round++ {
					t.Lock(mu)
					for p := 0; p < pages; p++ {
						// 16 bytes per page, at a per-worker offset: each
						// slice snapshots every page but dirties a sliver.
						a := data + rfdet.Addr(4096*p+256*int(me))
						t.Store64(a, t.Load64(a)+me*0x9e3779b97f4a7c15)
						t.Store64(a+8, t.Load64(a+8)+me)
					}
					t.Unlock(mu)
					t.Tick(50 * me)
				}
			}))
		}
		for _, id := range ids {
			t.Join(id)
		}
		var fold uint64
		for p := 0; p < pages; p++ {
			fold = fold*31 + t.Load64(data+rfdet.Addr(4096*p+256))
		}
		t.Observe(fold)
	}
	b.Run("extent", func(b *testing.B) {
		st := runDefaultStack(b, prog)
		reportSpanNanos(b, rfdet.DefaultOptions(), prog)
		b.ReportMetric(float64(st.DiffBytesScanned), "scanned-bytes")
		b.ReportMetric(float64(st.DiffBytesSkipped), "skipped-bytes")
		b.ReportMetric(float64(st.DirtyExtents), "extents")
	})
}

// BenchmarkBarrierPropagation is the coalesced write-plan headline: eight
// threads each overwrite the SAME 16-page region between barriers, so every
// barrier merge propagates 7 overlapping full-region write sets whose
// last-writer-wins image is exactly one region. Applying them run by run
// would be O(threads × bytes) under the monitor; the write plan applies each
// destination byte once (O(unique bytes)). "apply-ns" is the wall time one
// traced run spends in slice application.
func BenchmarkBarrierPropagation(b *testing.B) {
	const (
		workers = 8
		rounds  = 6
		pages   = 16
	)
	prog := func(t rfdet.Thread) {
		data := t.Malloc(pages * 4096)
		bar := rfdet.Addr(64)
		var ids []rfdet.ThreadID
		for w := 0; w < workers; w++ {
			me := uint64(w + 1)
			ids = append(ids, t.Spawn(func(t rfdet.Thread) {
				for round := 0; round < rounds; round++ {
					// Full overlap: every worker writes every word of the
					// region, so the merge's unique bytes are 1/7 of its
					// input bytes.
					for p := 0; p < pages; p++ {
						base := data + rfdet.Addr(4096*p)
						for i := 0; i < 512; i++ {
							t.Store64(base+rfdet.Addr(8*i), me*0x9e3779b97f4a7c15+uint64(round*512+i))
						}
					}
					t.Barrier(bar, workers)
				}
			}))
		}
		for _, id := range ids {
			t.Join(id)
		}
		var fold uint64
		for p := 0; p < pages; p++ {
			fold = fold*31 + t.Load64(data+rfdet.Addr(4096*p))
		}
		t.Observe(fold)
	}
	b.Run("coalesce", func(b *testing.B) {
		st := runDefaultStack(b, prog)
		reportSpanNanos(b, rfdet.DefaultOptions(), prog)
		b.ReportMetric(float64(st.BytesPropagated), "propagated-bytes")
		b.ReportMetric(float64(st.BytesCoalescedAway), "coalesced-away-bytes")
	})
}

// BenchmarkLockChainPropagation measures propagation on a deep lock-grant
// chain: six threads contend one mutex, each critical section split into
// several slices by an atomic, with Prelock pre-merging at every release.
// Overlapping writes across a collected list are deduplicated where an eager
// plan applies it ("coalesced-away-bytes").
func BenchmarkLockChainPropagation(b *testing.B) {
	const (
		workers = 6
		rounds  = 10
		words   = 4096 // 4 pages
	)
	prog := func(t rfdet.Thread) {
		buf := t.Malloc(words * 8)
		atom := t.Malloc(8)
		mu := rfdet.Addr(64)
		var ids []rfdet.ThreadID
		for w := 0; w < workers; w++ {
			me := uint64(w + 1)
			ids = append(ids, t.Spawn(func(t rfdet.Thread) {
				for round := 0; round < rounds; round++ {
					t.Lock(mu)
					t.AtomicAdd64(atom, me)
					for i := 0; i < words; i++ {
						a := buf + rfdet.Addr(8*i)
						t.Store64(a, t.Load64(a)+me)
					}
					t.Unlock(mu)
				}
			}))
		}
		for _, id := range ids {
			t.Join(id)
		}
		t.Observe(t.Load64(buf), t.Load64(atom))
	}
	b.Run("coalesce", func(b *testing.B) {
		st := runDefaultStack(b, prog)
		reportSpanNanos(b, rfdet.DefaultOptions(), prog)
		b.ReportMetric(float64(st.BytesCoalescedAway), "coalesced-away-bytes")
		b.ReportMetric(float64(st.CollectScanned), "collect-scanned")
	})
}

// BenchmarkLazyFlush measures the lazy-writes pending patch: a writer
// repeatedly overwrites the same two pages under a lock while the consumer
// keeps acquiring the lock without touching those pages, so every round
// pends another full overwrite. The coalescing patch absorbs them
// last-writer-wins and the single eventual flush writes each byte once.
// "elided-bytes" counts the overwritten bytes the flush never wrote.
func BenchmarkLazyFlush(b *testing.B) {
	const (
		rounds = 60
		words  = 1024 // 2 pages, fully overwritten every round
	)
	prog := func(t rfdet.Thread) {
		hot := t.Malloc(words * 8)
		flag := t.Malloc(8)
		mu := rfdet.Addr(64)
		writer := t.Spawn(func(t rfdet.Thread) {
			for round := 0; round < rounds; round++ {
				t.Lock(mu)
				for i := 0; i < words; i++ {
					t.Store64(hot+rfdet.Addr(8*i), uint64(round)*0x0101010101010101+uint64(i))
				}
				t.Store64(flag, uint64(round))
				t.Unlock(mu)
			}
		})
		// The consumer acquires every release (so the hot pages' updates are
		// propagated to it round after round) but reads only the flag page:
		// the hot pages stay pended until the very last load below.
		for round := 0; round < rounds; round++ {
			t.Lock(mu)
			t.Tick(200)
			t.Unlock(mu)
		}
		t.Join(writer)
		t.Observe(t.Load64(hot), t.Load64(hot+rfdet.Addr(8*(words-1))), t.Load64(flag))
	}
	b.Run("coalesce", func(b *testing.B) {
		if !rfdet.DefaultOptions().LazyWrites {
			b.Fatal("default options lost lazy writes")
		}
		st := runDefaultStack(b, prog)
		b.ReportMetric(float64(st.LazyPendingApplied), "pended-runs-applied")
		b.ReportMetric(float64(st.LazyRunsElided), "elided-bytes")
		reportSpanNanos(b, rfdet.DefaultOptions(), prog)
	})
}

// BenchmarkRecordingOverhead quantifies the §2 comparison between DMT and
// record-and-replay: an R+R system must log every synchronization operation
// (reported as "log-bytes"), while a DMT system achieves replayability by
// recording program inputs only — zero log bytes per run.
func BenchmarkRecordingOverhead(b *testing.B) {
	for _, name := range []string{"ocean", "water-ns", "dedup", "ferret"} {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		cfg := workloads.Config{Threads: 4, Size: benchSize}
		b.Run(name+"/pthreads-record", func(b *testing.B) {
			rec := replay.NewRecorder()
			var bytes uint64
			for i := 0; i < b.N; i++ {
				_, log, err := rec.Record(w.Prog(cfg))
				if err != nil {
					b.Fatal(err)
				}
				bytes = log.Bytes()
			}
			b.ReportMetric(float64(bytes), "log-bytes")
		})
		b.Run(name+"/rfdet-ci", func(b *testing.B) {
			rt := rfdet.NewCI()
			for i := 0; i < b.N; i++ {
				if _, err := rt.Run(w.Prog(cfg)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(0, "log-bytes") // inputs only (§2)
		})
	}
}

// BenchmarkServerThroughput measures the deterministic KV server — the
// replica workload — on the default stack, reporting requests per second
// against both clocks: "req-s-virtual" divides the request count by the
// deterministic virtual-time makespan (the figure replicas must agree on),
// "req-s-host" by host wall time. Every iteration must produce the same
// state hash, response hash and virtual time as the first.
func BenchmarkServerThroughput(b *testing.B) {
	w, err := workloads.ByName("server")
	if err != nil {
		b.Fatal(err)
	}
	requests := workloads.ServerRequests(benchSize)
	cfg := workloads.Config{Threads: 4, Size: benchSize}
	type fingerprint struct {
		state, resp, vtime uint64
	}
	b.Run("default", func(b *testing.B) {
		rt := rfdet.New(rfdet.DefaultOptions())
		var fp fingerprint
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := rt.Run(w.Prog(cfg))
			if err != nil {
				b.Fatal(err)
			}
			sum, err := workloads.SummarizeServer(rep)
			if err != nil {
				b.Fatal(err)
			}
			got := fingerprint{sum.StateHash, sum.ResponseHash, rep.VirtualTime}
			if i == 0 {
				fp = got
			} else if got != fp {
				b.Fatal("server nondeterministic across iterations")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(requests)*1e9/float64(fp.vtime), "req-s-virtual")
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(requests*b.N)/secs, "req-s-host")
		}
	})
}
