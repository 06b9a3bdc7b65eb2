package rfdet_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"rfdet"
	"rfdet/internal/core"
	"rfdet/internal/harness"
	"rfdet/internal/litmus"
	"rfdet/internal/mem"
	"rfdet/internal/trace"
	"rfdet/internal/workloads"
)

// Seed-behavior regression wall for the extent-guided diff change.
//
// These constants were captured from the pre-change runtime (full-page
// diffing) at commit 27aee6c, at GOMAXPROCS 1, 2, 4 and 8 — all identical,
// as determinism demands. Sub-page dirty tracking must be *invisible*: it
// changes which bytes the slice-end diff scans, never which modifications
// it finds, and the virtual-time model still charges vtime.DiffPage per
// snapshotted page. So outputs, virtual times AND full traces (which embed
// per-event virtual clocks) must remain bit-identical to the seed. If one
// of these values ever changes, the diff fast path altered observable
// behavior — that is a bug, not a baseline refresh.
const (
	goldenLitmusHash = uint64(0x56dfa6306050903f)

	goldenWordcountOutput = uint64(0xa96fd08b553d74e4)
	goldenWordcountVTime  = uint64(37073)
	goldenWordcountTrace  = uint64(0xd6e8467b5b0149ef)

	goldenFFTOutput = uint64(0x2c11c3233a156078)
	goldenFFTVTime  = uint64(85814)
	goldenFFTTrace  = uint64(0xf9c2d06607798849)

	goldenRaceyOutput = uint64(0x22d8e78f10322389)
	goldenRaceyVTime  = uint64(24179)

	// KV-server goldens (PR 7), captured at 4 worker threads / SizeTest /
	// DefaultServerSeed across GOMAXPROCS 1-8 — all identical, as the
	// replica-divergence property demands. The state and
	// response hashes are the replica fingerprints the harness compares;
	// output/vtime/trace pin the full runtime behavior around them.
	goldenServerOutput = uint64(0x4e54dc625c3bc116)
	goldenServerVTime  = uint64(469638)
	goldenServerTrace  = uint64(0x5d3ee695ccdf7685)
	goldenServerState  = uint64(0x882c4a3e614966c9)
	goldenServerResp   = uint64(0x809ff36626efc075)
	goldenServerObs    = uint64(0x039aeb8cfba40bb8)
)

var regressionProcs = []int{1, 2, 4, 8}

// seedConfig is the workload configuration the goldens were captured with.
var seedConfig = workloads.Config{Threads: 4, Size: workloads.SizeTest}

func fnvString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// TestSeedRegressionLitmus replays the full litmus suite under RFDet-ci and
// checks the concatenated outcome digest against the seed.
func TestSeedRegressionLitmus(t *testing.T) {
	for _, p := range regressionProcs {
		old := runtime.GOMAXPROCS(p)
		var lit string
		for _, tst := range litmus.Tests() {
			outs, err := litmus.Observe(rfdet.NewCI(), tst, 3)
			if err != nil {
				runtime.GOMAXPROCS(old)
				t.Fatalf("P=%d %s: %v", p, tst.Name, err)
			}
			lit += fmt.Sprintf("%s:%v;", tst.Name, outs)
		}
		runtime.GOMAXPROCS(old)
		if h := fnvString(lit); h != goldenLitmusHash {
			t.Fatalf("P=%d: litmus hash %#x, seed %#x — litmus outcomes changed", p, h, goldenLitmusHash)
		}
	}
}

// TestSeedRegressionTraces runs wordcount and fft traced, and racey
// untraced, 5 times at each GOMAXPROCS in {1,2,4,8} — 20 runs per workload
// — and demands the seed's exact output hashes, virtual times and trace
// digests with dirty tracking live.
func TestSeedRegressionTraces(t *testing.T) {
	repeats := 5
	if testing.Short() {
		repeats = 1
	}
	goldens := []struct {
		workload             string
		output, vtime, trace uint64
	}{
		{"wordcount", goldenWordcountOutput, goldenWordcountVTime, goldenWordcountTrace},
		{"fft", goldenFFTOutput, goldenFFTVTime, goldenFFTTrace},
	}
	opts := core.DefaultOptions()
	opts.Trace = true
	rt := core.New(opts)
	for _, p := range regressionProcs {
		old := runtime.GOMAXPROCS(p)
		for rep := 0; rep < repeats; rep++ {
			for _, g := range goldens {
				w, err := workloads.ByName(g.workload)
				if err != nil {
					runtime.GOMAXPROCS(old)
					t.Fatal(err)
				}
				r, tr, err := rt.RunTraced(w.Prog(seedConfig))
				if err != nil {
					runtime.GOMAXPROCS(old)
					t.Fatalf("P=%d run %d %s: %v", p, rep, g.workload, err)
				}
				if r.OutputHash != g.output || r.VirtualTime != g.vtime {
					runtime.GOMAXPROCS(old)
					t.Fatalf("P=%d run %d %s: output=%#x vtime=%d, seed output=%#x vtime=%d",
						p, rep, g.workload, r.OutputHash, r.VirtualTime, g.output, g.vtime)
				}
				if th := fnvString(tr.String()); th != g.trace {
					runtime.GOMAXPROCS(old)
					t.Fatalf("P=%d run %d %s: trace hash %#x, seed %#x — event-level behavior changed",
						p, rep, g.workload, th, g.trace)
				}
				if r.Stats.DiffBytesSkipped == 0 {
					runtime.GOMAXPROCS(old)
					t.Fatalf("P=%d run %d %s: slice diffing skipped no bytes — dirty tracking was not live",
						p, rep, g.workload)
				}
			}
			w, err := workloads.ByName("racey")
			if err != nil {
				runtime.GOMAXPROCS(old)
				t.Fatal(err)
			}
			r, err := rfdet.New(core.DefaultOptions()).Run(w.Prog(seedConfig))
			if err != nil {
				runtime.GOMAXPROCS(old)
				t.Fatalf("P=%d run %d racey: %v", p, rep, err)
			}
			if r.OutputHash != goldenRaceyOutput || r.VirtualTime != goldenRaceyVTime {
				runtime.GOMAXPROCS(old)
				t.Fatalf("P=%d run %d racey: output=%#x vtime=%d, seed output=%#x vtime=%d",
					p, rep, r.OutputHash, r.VirtualTime, goldenRaceyOutput, goldenRaceyVTime)
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestSeedRegressionServer freezes the KV-server workload like the kernel
// goldens: at every GOMAXPROCS in {1,2,4,8}, the traced run must reproduce
// the exact output hash, virtual time, trace digest, state hash, response hash and
// full observation digest. These are the replica fingerprints: if one of
// them moves, replicas built from different checkouts would diverge.
func TestSeedRegressionServer(t *testing.T) {
	w, err := workloads.ByName("server")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Trace = true
	rt := core.New(opts)
	for _, p := range regressionProcs {
		old := runtime.GOMAXPROCS(p)
		r, tr, err := rt.RunTraced(w.Prog(seedConfig))
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if r.OutputHash != goldenServerOutput || r.VirtualTime != goldenServerVTime {
			t.Fatalf("P=%d: output=%#x vtime=%d, seed output=%#x vtime=%d",
				p, r.OutputHash, r.VirtualTime, goldenServerOutput, goldenServerVTime)
		}
		if th := fnvString(tr.String()); th != goldenServerTrace {
			t.Fatalf("P=%d: trace hash %#x, seed %#x — server event-level behavior changed",
				p, th, goldenServerTrace)
		}
		sum, err := workloads.SummarizeServer(r)
		if err != nil {
			t.Fatal(err)
		}
		if sum.StateHash != goldenServerState || sum.ResponseHash != goldenServerResp {
			t.Fatalf("P=%d: state=%#x resp=%#x, seed state=%#x resp=%#x",
				p, sum.StateHash, sum.ResponseHash, goldenServerState, goldenServerResp)
		}
		if d := r.ObservationsDigest(); d != goldenServerObs {
			t.Fatalf("P=%d: observation digest %#x, seed %#x", p, d, goldenServerObs)
		}
	}
}

// TestSeedRegressionServerReplicas is the replica-divergence matrix body: the
// golden request log replicated across harness.MatrixVariants (GOMAXPROCS
// {1,4,8}) must agree with each other AND with the pinned golden
// fingerprints.
func TestSeedRegressionServerReplicas(t *testing.T) {
	rep := harness.RunServerReplicas(seedConfig, workloads.DefaultServerSeed, harness.MatrixVariants())
	if rep.Divergent() {
		t.Fatalf("replicas diverged:\n%s", strings.Join(rep.Divergences, "\n"))
	}
	for i, run := range rep.Runs {
		if run.Summary.StateHash != goldenServerState || run.Summary.ResponseHash != goldenServerResp {
			t.Fatalf("replica %d (%s): state=%#x resp=%#x, seed state=%#x resp=%#x",
				i, run.Variant, run.Summary.StateHash, run.Summary.ResponseHash,
				goldenServerState, goldenServerResp)
		}
		if run.VirtualTime != goldenServerVTime {
			t.Fatalf("replica %d (%s): vtime %d, seed %d", i, run.Variant, run.VirtualTime, goldenServerVTime)
		}
		if run.ObsDigest != goldenServerObs {
			t.Fatalf("replica %d (%s): observation digest %#x, seed %#x",
				i, run.Variant, run.ObsDigest, goldenServerObs)
		}
	}
}

// TestSeedRegressionRaceDetectMatches is the loop-closer for happens-before
// race detection: running the exact seed workloads with RaceDetect ON must
// hit the exact same goldens — output, virtual time and deterministic trace
// digest — proving read tracking and access recording never touch the
// determinism surface. The race reports themselves must be present.
func TestSeedRegressionRaceDetectMatches(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Trace = true
	opts.RaceDetect = true
	rt := core.New(opts)
	goldens := []struct {
		workload             string
		output, vtime, trace uint64
	}{
		{"wordcount", goldenWordcountOutput, goldenWordcountVTime, goldenWordcountTrace},
		{"fft", goldenFFTOutput, goldenFFTVTime, goldenFFTTrace},
	}
	for _, g := range goldens {
		w, err := workloads.ByName(g.workload)
		if err != nil {
			t.Fatal(err)
		}
		r, tr, err := rt.RunTraced(w.Prog(seedConfig))
		if err != nil {
			t.Fatal(err)
		}
		if r.OutputHash != g.output || r.VirtualTime != g.vtime {
			t.Fatalf("RaceDetect %s: output=%#x vtime=%d, seed output=%#x vtime=%d",
				g.workload, r.OutputHash, r.VirtualTime, g.output, g.vtime)
		}
		if th := fnvString(tr.String()); th != g.trace {
			t.Fatalf("RaceDetect %s: trace hash %#x, seed %#x — detection perturbed the schedule",
				g.workload, th, g.trace)
		}
		if r.Races == nil {
			t.Fatalf("RaceDetect %s: race report missing", g.workload)
		}
		if r.Stats.RaceRecords == 0 {
			t.Fatalf("RaceDetect %s: no accesses recorded", g.workload)
		}
	}
}

// TestSeedRegressionTraceStabilityUnderLoad re-runs fft traced many times in
// a tight loop and demands every trace digest equals the seed's. This is the
// regression test for the exit/join turn-handoff race: threadExit used to
// flip the exiting thread to Exited — which releases its deterministic turn —
// *before* waking its joiner, leaving a window where a third thread whose
// Kendo clock exceeded the still-Blocked joiner's could pass WaitForTurn and
// slip its operation in. The visible symptom was the joiner's final join
// event occasionally recording a different Kendo clock (blocked vs
// non-blocked path), a sub-percent flake that only dense repetition exposes.
func TestSeedRegressionTraceStabilityUnderLoad(t *testing.T) {
	runs := 200
	if testing.Short() {
		runs = 20
	}
	opts := core.DefaultOptions()
	opts.Trace = true
	rt := core.New(opts)
	w, err := workloads.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < runs; i++ {
		r, tr, err := rt.RunTraced(w.Prog(seedConfig))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if r.OutputHash != goldenFFTOutput || r.VirtualTime != goldenFFTVTime {
			t.Fatalf("run %d: output=%#x vtime=%d, seed output=%#x vtime=%d",
				i, r.OutputHash, r.VirtualTime, goldenFFTOutput, goldenFFTVTime)
		}
		if th := fnvString(tr.String()); th != goldenFFTTrace {
			t.Fatalf("run %d: trace hash %#x, seed %#x — exit/join turn handoff raced", i, th, goldenFFTTrace)
		}
	}
}

// TestSeedRegressionPhaseTraceMatches is the loop-closer for phase-level
// observability: running the exact seed workload with phase tracing ON must
// hit the exact same goldens — output, virtual time and deterministic trace
// digest — proving wall-clock span recording never touches the determinism
// surface. The diff and apply+premerge span totals must be positive (their
// sites are the runtime's only host timing of that work), and the spans must
// export as valid Chrome-trace JSON.
func TestSeedRegressionPhaseTraceMatches(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Trace = true
	opts.PhaseTrace = true
	rt := core.New(opts)
	w, err := workloads.ByName("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	r, tr, err := rt.RunTraced(w.Prog(seedConfig))
	if err != nil {
		t.Fatal(err)
	}
	if r.OutputHash != goldenWordcountOutput || r.VirtualTime != goldenWordcountVTime {
		t.Fatalf("PhaseTrace: output=%#x vtime=%d, seed output=%#x vtime=%d",
			r.OutputHash, r.VirtualTime, goldenWordcountOutput, goldenWordcountVTime)
	}
	if th := fnvString(tr.String()); th != goldenWordcountTrace {
		t.Fatalf("PhaseTrace: trace hash %#x, seed %#x", th, goldenWordcountTrace)
	}
	if r.Phases == nil {
		t.Fatal("phase report missing")
	}
	tot := r.Phases.PhaseTotals()
	if tot[trace.PhaseDiff] <= 0 {
		t.Fatalf("diff span total %v, want > 0", tot[trace.PhaseDiff])
	}
	if got := tot[trace.PhaseApply] + tot[trace.PhasePremerge]; got <= 0 {
		t.Fatalf("apply+premerge span total %v, want > 0", got)
	}
	var buf bytes.Buffer
	if err := r.Phases.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestSeedRegressionPoisonedPools runs the seed goldens with poison-on-recycle
// on (mem.SetPageBufPoison): snapshot buffers, released patches' staging
// buffers and extent lists, the dirty tracker's extent lists and every
// thread's payload staging area are overwritten the moment they are given
// back for reuse. Recycling is sound exactly when nothing still reads what
// was recycled, so every golden — output, virtual time, event trace, the
// server log's state and response hashes — must come out bit-identical.
func TestSeedRegressionPoisonedPools(t *testing.T) {
	mem.SetPageBufPoison(true)
	defer mem.SetPageBufPoison(false)
	goldens := []struct {
		workload             string
		output, vtime, trace uint64
	}{
		{"wordcount", goldenWordcountOutput, goldenWordcountVTime, goldenWordcountTrace},
		{"fft", goldenFFTOutput, goldenFFTVTime, goldenFFTTrace},
		{"racey", goldenRaceyOutput, goldenRaceyVTime, 0},
		{"server", goldenServerOutput, goldenServerVTime, goldenServerTrace},
	}
	opts := core.DefaultOptions()
	opts.Trace = true
	rt := core.New(opts)
	for _, p := range []int{1, 4} {
		for _, g := range goldens {
			w, err := workloads.ByName(g.workload)
			if err != nil {
				t.Fatal(err)
			}
			old := runtime.GOMAXPROCS(p)
			r, tr, err := rt.RunTraced(w.Prog(seedConfig))
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatalf("P=%d %s: %v", p, g.workload, err)
			}
			if r.OutputHash != g.output || r.VirtualTime != g.vtime {
				t.Fatalf("P=%d %s: output=%#x vtime=%d, seed output=%#x vtime=%d — something read recycled storage",
					p, g.workload, r.OutputHash, r.VirtualTime, g.output, g.vtime)
			}
			if th := fnvString(tr.String()); g.trace != 0 && th != g.trace {
				t.Fatalf("P=%d %s: trace hash %#x, seed %#x", p, g.workload, th, g.trace)
			}
			if g.workload != "server" {
				continue
			}
			sum, err := workloads.SummarizeServer(r)
			if err != nil {
				t.Fatal(err)
			}
			if sum.StateHash != goldenServerState || sum.ResponseHash != goldenServerResp {
				t.Fatalf("P=%d: state=%#x resp=%#x, seed state=%#x resp=%#x",
					p, sum.StateHash, sum.ResponseHash, goldenServerState, goldenServerResp)
			}
		}
	}
}

// TestBenchmarkProgramsPoisonedMatchParentStats runs the four programs
// bench/ times, at its sizes — kv_server is the golden server — with
// poison-on-recycle on, and pins everything deterministic an execution reports — output hash,
// virtual time, the synchronization trace and every Stats field the host does
// not decide — to the values of commit 87e3df6, the last one at which a
// thread kept its slice's snapshots in a map of its own. Since then they live
// in the space's page records and go back to the pool where the records are
// reset: a snapshot handed back before its page is diffed reads 0xDB and
// changes the modification list, so BytesPropagated and the output with it.
//
// The stats hashes of kv_server, water_ns and fft were re-pinned when lazy
// writes began pending references to the propagated runs instead of copying
// them through a write plan (the commit after fef0bd7). Four fields changed
// meaning then and nothing else moved: LazyPendingApplied counts every run
// pended, once; LazyRunsElided every pended byte a later pend covered;
// BytesCoalescedAway and PlanReuse count eager plans only, which these lazy
// runs no longer build. What the plans coalesced away is now elided at the
// flush, so BytesCoalescedAway + LazyRunsElided — elided below — is still the
// parent's sum, byte for byte.
func TestBenchmarkProgramsPoisonedMatchParentStats(t *testing.T) {
	checkBenchmarkPrograms(t, core.DefaultOptions(), []benchmarkProgramPin{
		// The benchmark's kv_server at the default seed is the golden server.
		{"kv_server", goldenServerOutput, goldenServerVTime, goldenServerTrace, 0x30bf1643dc47c3, 4978},
		{"water_ns", 0xf8591d83f6e0bdb3, 1977205, 0xf8bffd9aa9b8cd8b, 0xbddc8a1a6ab6bf3a, 20631},
		{"fft", 0x918759f64874e596, 1522575, 0x2352dae3d6166543, 0xecb4bd3083624ec1, 2466344},
		{"matmul", 0xcec7e115888aade4, 388887, 0xe7f1c6aacd28269, 0x3e5706d2dae90f3e, 0},
	})
}

// TestBenchmarkProgramsEagerMatchParentStats pins the same four programs on
// the eager stack — DefaultOptions with LazyWrites off, the paper's
// lazy-writes ablation — to the values of commit 1905076, the last one with
// three copies of the eager apply (applySlices, the barrier leader's own
// branch and prelock plan sharing). Every propagated list is applied at once
// there, so BytesCoalescedAway is the whole elided column: LazyRunsElided is
// 0. PlanReuse, which counted shared prelock plans, read 2 on kv_server then;
// the stats hash holds the 0 it has read since plans stopped being shared.
func TestBenchmarkProgramsEagerMatchParentStats(t *testing.T) {
	opts := core.DefaultOptions()
	opts.LazyWrites = false
	checkBenchmarkPrograms(t, opts, []benchmarkProgramPin{
		{"kv_server", goldenServerOutput, 468952, 0x61e7c43773cd6023, 0xae18c9e1030ffcd3, 3903},
		{"water_ns", 0xf8591d83f6e0bdb3, 1982267, 0xa7edf501e2739d6f, 0x410a88ba68791691, 20278},
		{"fft", 0x918759f64874e596, 2166618, 0x4fda62080c21f6ff, 0xe06e0a407031f402, 634748},
		{"matmul", 0xcec7e115888aade4, 391174, 0xe7f1c6aacd28269, 0x51f1a22be0c53851, 0},
	})
}

// TestBenchmarkProgramsPFMatchParentStats pins the four programs under the
// page-fault monitor with slice merging off, where two frame orders show that
// the CI-monitor pins cannot see: beginSlice charges the protection pass to
// the thread's virtual time before syncEvent stamps it, and every uncontended
// Lock commits its slice. The pins are those of commit e0f6145, before the
// synchronization operations were rewritten around one shared frame.
func TestBenchmarkProgramsPFMatchParentStats(t *testing.T) {
	checkBenchmarkPrograms(t, core.Options{Monitor: core.MonitorPF, Prelock: true, LazyWrites: true}, []benchmarkProgramPin{
		{"kv_server", 0x4e54dc625c3bc116, 1137889, 0x92b3ed728f1de110, 0xdb95ce1a6fc89542, 4978},
		{"water_ns", 0xf8591d83f6e0bdb3, 5124055, 0x2288c46ad03b5f14, 0xc7b82e3d6f444bc2, 20631},
		{"fft", 0x918759f64874e596, 1886945, 0xdcd8c66cf9b3d937, 0x7c3cf021b0cfdc5c, 2466344},
		{"matmul", 0xcec7e115888aade4, 395311, 0xe7f1c6aacd28269, 0x68571549324f5a35, 0},
	})
}

// benchmarkProgramPin is one program's pinned execution: output hash, virtual
// time, synchronization-trace hash, the hash of its Stats.Deterministic(), and
// BytesCoalescedAway + LazyRunsElided.
//
// Every stats hash of the three tests above was re-pinned once, when api.Stats
// dropped its two wall-clock fields, the diff and apply nanos (the commit
// after a76d616). Deterministic zeroed both, so the hashed %+v text lost only
// their two zero entries: each new pin is the FNV hash of the parent's %+v
// string with those two entries removed, computed on a copy of a76d616.
// Outputs, virtual times, traces and the elided column did not move.
//
// The fft stats hashes of all three were re-pinned when a page record's
// written bytes became one byte mask (the commit after 8a66264): fft's
// fragmented pages had degraded to a 64-byte-chunk bitmap, and their diff now
// scans exactly the bytes written. Three counters moved, the same in all
// three tests — DirtyExtents 284 → 5,366, DiffBytesScanned 950,792 →
// 851,464, DiffBytesSkipped 212,472 → 311,800 — and nothing else: each old
// pin is the FNV hash of the new %+v string with those three values put back.
type benchmarkProgramPin struct {
	name                                string
	output, vtime, trace, stats, elided uint64
}

// checkBenchmarkPrograms runs the four programs bench/ times, at its sizes —
// kv_server is the golden server — traced, with poison-on-recycle on, at
// GOMAXPROCS 1, 4 and 8, and compares each execution with its pin. Eight Ps
// on a host with fewer CPUs is the hostile case for the host interleavings a
// deferred release adds (sync.go).
func checkBenchmarkPrograms(t *testing.T, opts core.Options, pins []benchmarkProgramPin) {
	t.Helper()
	mem.SetPageBufPoison(true)
	defer mem.SetPageBufPoison(false)
	bench := func(size workloads.Size) workloads.Config { return workloads.Config{Threads: 4, Size: size} }
	progs := map[string]rfdet.ThreadFunc{
		"kv_server": workloads.ServerSeeded(bench(workloads.SizeTest), workloads.DefaultServerSeed),
		"water_ns":  workloads.WaterNS(bench(workloads.SizeSmall)),
		"fft":       workloads.FFT(bench(workloads.SizeMedium)),
		"matmul":    workloads.MatrixMultiply(bench(workloads.SizeMedium)),
	}
	opts.Trace = true
	rt := core.New(opts)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, g := range pins {
		for _, p := range []int{1, 4, 8} {
			runtime.GOMAXPROCS(p)
			r, tr, err := rt.RunTraced(progs[g.name])
			if err != nil {
				t.Fatalf("P=%d %s: %v", p, g.name, err)
			}
			st := r.Stats.Deterministic()
			if got := st.BytesCoalescedAway + st.LazyRunsElided; got != g.elided {
				t.Errorf("P=%d %s: %d bytes coalesced away + %d elided at the flush = %d, parent %d",
					p, g.name, st.BytesCoalescedAway, st.LazyRunsElided, got, g.elided)
			}
			trace, stats := fnvString(tr.String()), fnvString(fmt.Sprintf("%+v", st))
			if r.OutputHash != g.output || r.VirtualTime != g.vtime || trace != g.trace || stats != g.stats {
				t.Errorf("P=%d %s: output=%#x vtime=%d trace=%#x stats=%#x elided=%d, parent output=%#x vtime=%d trace=%#x stats=%#x\n%+v",
					p, g.name, r.OutputHash, r.VirtualTime, trace, stats, st.BytesCoalescedAway+st.LazyRunsElided,
					g.output, g.vtime, g.trace, g.stats, st)
			}
		}
	}
}
