// Package harness runs (workload × runtime × thread-count) matrices and
// renders the paper's evaluation artifacts: Figure 7 (normalized execution
// time), Table 1 (profiling data), Figure 8 (scalability), Figure 9
// (optimization study) and the §5.1 racey determinism check.
//
// All performance comparisons use the deterministic virtual-time makespan
// (internal/vtime) rather than host wall-clock time, so the regenerated
// figures are host-independent; wall-clock durations are reported alongside
// for reference.
package harness

import (
	"fmt"
	"io"
	"strings"

	"rfdet/internal/api"
	"rfdet/internal/core"
	"rfdet/internal/dthreads"
	"rfdet/internal/pthreads"
	"rfdet/internal/stats"
	"rfdet/internal/trace"
	"rfdet/internal/workloads"
)

// Result is one workload execution on one runtime.
type Result struct {
	Workload string
	Runtime  string
	Threads  int
	Report   *api.Report
}

// Run executes the workload on the runtime, repeating and keeping the run
// with the median virtual time (repeats ≤ 1 runs once).
func Run(rt api.Runtime, w workloads.Workload, cfg workloads.Config, repeats int) (*Result, error) {
	if repeats < 1 {
		repeats = 1
	}
	var reports []*api.Report
	for i := 0; i < repeats; i++ {
		rep, err := rt.Run(w.Prog(cfg))
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", w.Name, rt.Name(), err)
		}
		reports = append(reports, rep)
	}
	// Median by virtual time.
	best := reports[0]
	if len(reports) > 1 {
		for i := 1; i < len(reports); i++ {
			for j := i; j > 0 && reports[j].VirtualTime < reports[j-1].VirtualTime; j-- {
				reports[j], reports[j-1] = reports[j-1], reports[j]
			}
		}
		best = reports[len(reports)/2]
	}
	return &Result{Workload: w.Name, Runtime: rt.Name(), Threads: cfg.Threads, Report: best}, nil
}

// NewRFDetCI returns the paper's best configuration (RFDet-ci, all
// optimizations).
func NewRFDetCI() api.Runtime { return core.New(core.DefaultOptions()) }

// NewRFDetPF returns RFDet-pf with all optimizations.
func NewRFDetPF() api.Runtime {
	opts := core.DefaultOptions()
	opts.Monitor = core.MonitorPF
	return core.New(opts)
}

// Figure7 regenerates Figure 7: execution time of DThreads, RFDet-pf and
// RFDet-ci normalized to pthreads for every benchmark at the given thread
// count. The paper reports (4 threads, AMD testbed): RFDet-ci ~1.35x,
// RFDet-pf ~1.73x, DThreads ~2.5x on average, with DThreads' worst case
// ~10x (lu-non) and RFDet's worst case ~2.6x (ocean).
func Figure7(out io.Writer, size workloads.Size, threads, repeats int) error {
	cfg := workloads.Config{Threads: threads, Size: size}
	rts := []api.Runtime{pthreads.New(), dthreads.New(), NewRFDetPF(), NewRFDetCI()}

	fmt.Fprintf(out, "Figure 7: execution time normalized to pthreads (%d threads, size %s, virtual-time makespan)\n\n",
		threads, size)
	fmt.Fprintf(out, "%-18s %9s %11s %11s %11s\n", "benchmark", "pthreads", "dthreads", "rfdet-pf", "rfdet-ci")

	norms := map[string][]float64{}
	for _, w := range workloads.All() {
		base := 0.0
		row := fmt.Sprintf("%-18s", w.Name)
		for _, rt := range rts {
			res, err := Run(rt, w, cfg, repeats)
			if err != nil {
				return err
			}
			vt := float64(res.Report.VirtualTime)
			if rt.Name() == "pthreads" {
				base = vt
				row += fmt.Sprintf(" %8.2fx", 1.0)
				continue
			}
			n := vt / base
			norms[rt.Name()] = append(norms[rt.Name()], n)
			row += fmt.Sprintf(" %10.2fx", n)
		}
		fmt.Fprintln(out, row)
	}
	fmt.Fprintf(out, "%-18s %9s %10.2fx %10.2fx %10.2fx\n", "geomean", "1.00x",
		stats.GeoMean(norms["dthreads"]), stats.GeoMean(norms["rfdet-pf"]), stats.GeoMean(norms["rfdet-ci"]))
	fmt.Fprintf(out, "%-18s %9s %10.2fx %10.2fx %10.2fx\n", "worst case", "",
		stats.Max(norms["dthreads"]), stats.Max(norms["rfdet-pf"]), stats.Max(norms["rfdet-ci"]))
	ciOver := (stats.GeoMean(norms["rfdet-ci"]) - 1) * 100
	pfOver := (stats.GeoMean(norms["rfdet-pf"]) - 1) * 100
	fmt.Fprintf(out, "\nRFDet-ci overhead %.1f%%, RFDet-pf overhead %.1f%% vs pthreads;\n", ciOver, pfOver)
	fmt.Fprintf(out, "RFDet-ci speedup over DThreads: %.2fx (paper: ~1.8x)\n",
		stats.GeoMean(norms["dthreads"])/stats.GeoMean(norms["rfdet-ci"]))
	return nil
}

// Table1 regenerates Table 1: profiling data of benchmark executions —
// synchronization-operation counts, memory-operation counts, stores that
// copied a page, memory footprints under pthreads/RFDet/DThreads, and the
// slice garbage-collection count.
func Table1(out io.Writer, size workloads.Size, threads int) error {
	cfg := workloads.Config{Threads: threads, Size: size}
	fmt.Fprintf(out, "Table 1: profiling data (%d threads, size %s)\n\n", threads, size)
	fmt.Fprintf(out, "%-18s %8s %11s %6s | %10s %10s %10s %8s | %9s %9s %9s %4s\n",
		"benchmark", "lock/unl", "wait/signal", "fork",
		"mem", "load", "store", "st w/cp",
		"pthr(KB)", "rfdet(KB)", "dthr(KB)", "GC")
	for _, w := range workloads.All() {
		ci, err := Run(NewRFDetCI(), w, cfg, 1)
		if err != nil {
			return err
		}
		pt, err := Run(pthreads.New(), w, cfg, 1)
		if err != nil {
			return err
		}
		dt, err := Run(dthreads.New(), w, cfg, 1)
		if err != nil {
			return err
		}
		s := ci.Report.Stats
		fmt.Fprintf(out, "%-18s %8d %5d/%-5d %6d | %10d %10d %10d %8d | %9d %9d %9d %4d\n",
			w.Name,
			s.Locks, s.Waits, s.Signals, s.Forks,
			s.MemOps(), s.Loads, s.Stores, s.StoresWithCopy,
			pt.Report.Stats.RuntimeMemBytes/1024,
			s.RuntimeMemBytes/1024,
			dt.Report.Stats.RuntimeMemBytes/1024,
			s.GCCount)
	}
	fmt.Fprintln(out, "\nColumns mirror the paper's Table 1; footprints follow the §5.4 equations")
	fmt.Fprintln(out, "(pthreads = shared; RFDet = N*shared + metadata; DThreads = global + dirty copies).")
	return nil
}

// PropagationTable renders the coalesced write-plan propagation profile of
// every workload under RFDet-ci (all optimizations): slice pointers scanned
// by acquire-side collections, the high-water collected-list length, the
// propagated byte volume, and the bytes eager plans coalesced away and those
// lazy writes elided at the flush. Host time spent applying slices is
// PhaseTable's apply-us column. This is the observability companion to
// BenchmarkBarrierPropagation / BenchmarkLockChainPropagation
// (EXPERIMENTS.md).
func PropagationTable(out io.Writer, size workloads.Size, threads int) error {
	cfg := workloads.Config{Threads: threads, Size: size}
	fmt.Fprintf(out, "Write-plan propagation profile (%d threads, size %s, RFDet-ci)\n\n", threads, size)
	fmt.Fprintf(out, "%-18s %10s %8s | %12s %12s %12s %7s\n",
		"benchmark", "scanned", "maxlist",
		"prop(B)", "plan-away(B)", "elided(B)", "unused%")
	for _, w := range workloads.All() {
		r, err := Run(NewRFDetCI(), w, cfg, 1)
		if err != nil {
			return err
		}
		s := r.Report.Stats
		unusedPct := 0.0
		if s.BytesPropagated > 0 {
			unusedPct = 100 * float64(s.BytesCoalescedAway+s.LazyRunsElided) / float64(s.BytesPropagated)
		}
		fmt.Fprintf(out, "%-18s %10d %8d | %12d %12d %12d %6.1f%%\n",
			w.Name,
			s.CollectScanned, s.SliceListLen,
			s.BytesPropagated, s.BytesCoalescedAway, s.LazyRunsElided, unusedPct)
	}
	fmt.Fprintln(out, "\n\"plan-away\" bytes were overwritten inside one collected list, so an eager plan")
	fmt.Fprintln(out, "never writes them; \"elided\" bytes were pended and covered by a later pend, so the")
	fmt.Fprintln(out, "lazy flush never copies them. \"unused\" is both, as a share of the propagated bytes.")
	return nil
}

// NewRFDetCITraced returns RFDet-ci with phase-level wall-clock tracing
// enabled. Tracing is observational: the deterministic output is identical to
// NewRFDetCI's.
func NewRFDetCITraced() api.Runtime {
	opts := core.DefaultOptions()
	opts.PhaseTrace = true
	return core.New(opts)
}

// PhaseTable renders the phase-level wall-clock breakdown of every workload
// under RFDet-ci: where each execution actually spends its host time — turn
// waits, monitor waits, slice diffing, plan building, slice application,
// prelock pre-merges, lazy flushes, blocked time, and the remainder (user
// compute). Durations are wall-clock and host-dependent; the table is
// observability only and is not part of the deterministic artifact set.
func PhaseTable(out io.Writer, size workloads.Size, threads int) error {
	cfg := workloads.Config{Threads: threads, Size: size}
	fmt.Fprintf(out, "Phase-level wall-clock breakdown (%d threads, size %s, RFDet-ci, host-dependent)\n\n", threads, size)
	fmt.Fprintf(out, "%-18s %8s %8s %8s %8s %8s %8s %8s %9s %8s %8s | %8s %8s %8s\n",
		"benchmark", "turn-us", "mon-us", "diff-us", "plan-us", "apply-us",
		"premrg-us", "lazy-us", "block-us", "user-us", "wall-us",
		"tw-p50", "tw-p95", "tw-p99")
	for _, w := range workloads.All() {
		r, err := Run(NewRFDetCITraced(), w, cfg, 1)
		if err != nil {
			return err
		}
		ph := r.Report.Phases
		if ph == nil {
			return fmt.Errorf("harness: %s ran without a phase report", w.Name)
		}
		tot := ph.PhaseTotals()
		us := func(p trace.Phase) int64 { return tot[p].Microseconds() }
		pct := ph.PhasePercentiles()[trace.PhaseTurnWait]
		fmt.Fprintf(out, "%-18s %8d %8d %8d %8d %8d %8d %8d %9d %8d %8d | %7dns %7dns %7dns\n",
			w.Name,
			us(trace.PhaseTurnWait), us(trace.PhaseMonitorWait),
			us(trace.PhaseDiff), us(trace.PhasePlanBuild),
			us(trace.PhaseApply), us(trace.PhasePremerge),
			us(trace.PhaseLazyFlush), us(trace.PhaseBlock),
			ph.UserTime().Microseconds(),
			r.Report.Elapsed.Microseconds(),
			pct.P50.Nanoseconds(), pct.P95.Nanoseconds(), pct.P99.Nanoseconds())
	}
	fmt.Fprintln(out, "\nuser-us is per-thread lifetime minus the union of recorded phase spans,")
	fmt.Fprintln(out, "summed over threads; block-us overlaps the merge work done on a blocked")
	fmt.Fprintln(out, "thread's behalf (premerge and barrier-merge spans nest inside block spans).")
	fmt.Fprintln(out, "tw-p50/p95/p99 are nearest-rank percentiles over individual turn-wait spans.")
	return nil
}

// Figure8 regenerates Figure 8: scalability of RFDet-ci vs pthreads — the
// speedup of 4- and 8-thread executions relative to 2 threads, by virtual
// time. As in the paper, dedup and ferret are omitted and lu-con represents
// lu-non.
func Figure8(out io.Writer, size workloads.Size, repeats int) error {
	fmt.Fprintf(out, "Figure 8: scalability (speedup vs 2 threads, size %s, virtual-time makespan)\n\n", size)
	fmt.Fprintf(out, "%-18s | %7s %7s | %7s %7s\n", "", "pthread", "pthread", "rfdet", "rfdet")
	fmt.Fprintf(out, "%-18s | %7s %7s | %7s %7s\n", "benchmark", "4thr", "8thr", "4thr", "8thr")
	skip := map[string]bool{"dedup": true, "ferret": true, "lu-non": true}
	var p4, p8, r4, r8 []float64
	for _, w := range workloads.All() {
		if skip[w.Name] {
			continue
		}
		row := fmt.Sprintf("%-18s |", w.Name)
		for i, rt := range []api.Runtime{pthreads.New(), NewRFDetCI()} {
			var base float64
			for _, n := range []int{2, 4, 8} {
				res, err := Run(rt, w, workloads.Config{Threads: n, Size: size}, repeats)
				if err != nil {
					return err
				}
				vt := float64(res.Report.VirtualTime)
				if n == 2 {
					base = vt
					continue
				}
				sp := base / vt
				row += fmt.Sprintf(" %6.2fx", sp)
				switch {
				case i == 0 && n == 4:
					p4 = append(p4, sp)
				case i == 0 && n == 8:
					p8 = append(p8, sp)
				case i == 1 && n == 4:
					r4 = append(r4, sp)
				default:
					r8 = append(r8, sp)
				}
			}
			if i == 0 {
				row += " |"
			}
		}
		fmt.Fprintln(out, row)
	}
	fmt.Fprintf(out, "%-18s | %6.2fx %6.2fx | %6.2fx %6.2fx\n", "geomean",
		stats.GeoMean(p4), stats.GeoMean(p8), stats.GeoMean(r4), stats.GeoMean(r8))
	fmt.Fprintln(out, "\nRFDet's scalability should track pthreads' (paper: \"comparable\").")
	return nil
}

// Figure9 regenerates Figure 9: the speedup each of the prelock and
// lazy-writes optimizations provides over a baseline with both disabled, on
// the synchronization-heavy SPLASH-2 subset.
func Figure9(out io.Writer, size workloads.Size, threads, repeats int) error {
	cfg := workloads.Config{Threads: threads, Size: size}
	fmt.Fprintf(out, "Figure 9: prelock and lazy-writes optimization speedups (%d threads, size %s)\n\n", threads, size)
	fmt.Fprintf(out, "%-18s %9s %10s %11s %13s\n", "benchmark", "prelock", "lazywrite", "both", "prelock-par%")

	baselineOpts := core.Options{Monitor: core.MonitorCI, SliceMerging: true}
	prelockOpts := baselineOpts
	prelockOpts.Prelock = true
	lazyOpts := baselineOpts
	lazyOpts.LazyWrites = true
	bothOpts := prelockOpts
	bothOpts.LazyWrites = true

	splash := map[string]bool{
		"ocean": true, "water-ns": true, "water-sp": true, "fft": true,
		"radix": true, "lu-con": true, "lu-non": true,
	}
	for _, w := range workloads.All() {
		if !splash[w.Name] {
			continue
		}
		base, err := Run(core.New(baselineOpts), w, cfg, repeats)
		if err != nil {
			return err
		}
		pre, err := Run(core.New(prelockOpts), w, cfg, repeats)
		if err != nil {
			return err
		}
		lazy, err := Run(core.New(lazyOpts), w, cfg, repeats)
		if err != nil {
			return err
		}
		both, err := Run(core.New(bothOpts), w, cfg, repeats)
		if err != nil {
			return err
		}
		bvt := float64(base.Report.VirtualTime)
		parallelPct := 0.0
		if bp := pre.Report.Stats.BytesPropagated; bp > 0 {
			parallelPct = 100 * float64(pre.Report.Stats.PrelockBytes) / float64(bp)
		}
		fmt.Fprintf(out, "%-18s %8.2fx %9.2fx %10.2fx %12.1f%%\n",
			w.Name,
			bvt/float64(pre.Report.VirtualTime),
			bvt/float64(lazy.Report.VirtualTime),
			bvt/float64(both.Report.VirtualTime),
			parallelPct)
	}
	fmt.Fprintln(out, "\nprelock-par% is the share of propagated bytes pre-merged while blocked")
	fmt.Fprintln(out, "(the paper reports ~80% of propagation moved off the critical path).")
	return nil
}

// RaceyRuntimes returns the runtimes rfdet-bench's racey stress compares:
// both RFDet monitors, DThreads, and pthreads to show what nondeterminism
// looks like.
func RaceyRuntimes() []api.Runtime {
	return []api.Runtime{NewRFDetCI(), NewRFDetPF(), dthreads.New(), pthreads.New()}
}

// RaceyCheck performs the §5.1 determinism stress: racey is executed `runs`
// times on every runtime at every thread count, and every configuration of a
// runtime other than pthreads must yield one output hash, which covers every
// thread's observations and the final memory. It renders one row per
// configuration and errors if a deterministic runtime produced two outputs.
func RaceyCheck(out io.Writer, rts []api.Runtime, threads []int, size workloads.Size, runs int) error {
	racey, err := workloads.ByName("racey")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "racey determinism stress (%d runs per configuration, size %s)\n\n", runs, size)
	fmt.Fprintf(out, "%-10s %8s %16s %10s\n", "runtime", "threads", "distinct outputs", "verdict")
	var failed []string
	for _, rt := range rts {
		for _, n := range threads {
			seen := map[uint64]bool{}
			for i := 0; i < runs; i++ {
				rep, err := rt.Run(racey.Prog(workloads.Config{Threads: n, Size: size}))
				if err != nil {
					return fmt.Errorf("racey on %s, %d threads: %w", rt.Name(), n, err)
				}
				seen[rep.OutputHash] = true
			}
			verdict := "DETERMINISTIC"
			if len(seen) > 1 {
				verdict = "nondeterministic"
				if rt.Name() != "pthreads" {
					failed = append(failed, fmt.Sprintf("%s at %d threads", rt.Name(), n))
					verdict = "FAILED"
				}
			}
			fmt.Fprintf(out, "%-10s %8d %16d %10s\n", rt.Name(), n, len(seen), verdict)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("harness: nondeterministic racey output from %s", strings.Join(failed, ", "))
	}
	fmt.Fprintln(out, "\nEvery DMT configuration produced exactly one output across all runs (§5.1).")
	return nil
}

// AllExperiments renders every artifact in sequence.
func AllExperiments(out io.Writer, size workloads.Size, threads, repeats, raceyRuns int) error {
	sep := strings.Repeat("=", 100)
	steps := []func() error{
		func() error { return RaceyCheck(out, RaceyRuntimes(), []int{2, 4, 8}, size, raceyRuns) },
		func() error { return LitmusTable(out, raceyRuns) },
		func() error { return RaceTable(out, size, threads) },
		func() error { return ReplicaTable(out, size, threads, 3) },
		func() error { return Figure7(out, size, threads, repeats) },
		func() error { return Table1(out, size, threads) },
		func() error { return PropagationTable(out, size, threads) },
		func() error { return PhaseTable(out, size, threads) },
		func() error { return Figure8(out, size, repeats) },
		func() error { return Figure9(out, size, threads, repeats) },
	}
	for i, step := range steps {
		if i > 0 {
			fmt.Fprintf(out, "\n%s\n\n", sep)
		}
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}
