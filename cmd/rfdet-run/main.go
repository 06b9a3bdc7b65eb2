// Command rfdet-run executes one benchmark workload on one runtime and
// prints the full execution report: observations, output hash, virtual and
// wall time, and the Table 1 profiling counters. With -trace (RFDet
// runtimes only) it also dumps the deterministic synchronization schedule —
// the event-level witness of determinism.
//
//	rfdet-run -workload ocean -runtime rfdet-ci -threads 4 -size small
//	rfdet-run -workload racey -runtime pthreads -repeat 5
//	rfdet-run -workload dedup -trace | head -50
//	rfdet-run -workload racey -racecheck
package main

import (
	"flag"
	"fmt"
	"os"

	"rfdet/internal/api"
	"rfdet/internal/core"
	"rfdet/internal/dthreads"
	"rfdet/internal/pthreads"
	"rfdet/internal/workloads"
)

func main() {
	workload := flag.String("workload", "ocean", "benchmark name (see Table 1) or racey")
	rtName := flag.String("runtime", "rfdet-ci", "rfdet-ci, rfdet-pf, dthreads, coredet or pthreads")
	threads := flag.Int("threads", 4, "worker thread count")
	size := flag.String("size", "small", "problem size: test, small or medium")
	repeat := flag.Int("repeat", 1, "number of executions (reports determinism across them)")
	trace := flag.Bool("trace", false, "dump the deterministic synchronization schedule (rfdet only)")
	racecheck := flag.Bool("racecheck", false, "run the happens-before race detector and print its report (rfdet only)")
	quantum := flag.Uint64("quantum", 50000, "coredet quantum in logical instructions")
	flag.Parse()

	w, err := workloads.ByName(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var sz workloads.Size
	switch *size {
	case "test":
		sz = workloads.SizeTest
	case "small":
		sz = workloads.SizeSmall
	case "medium":
		sz = workloads.SizeMedium
	default:
		fmt.Fprintf(os.Stderr, "rfdet-run: unknown size %q\n", *size)
		os.Exit(2)
	}
	cfg := workloads.Config{Threads: *threads, Size: sz}

	var rt api.Runtime
	var traced *core.Runtime
	switch *rtName {
	case "rfdet-ci", "rfdet-pf":
		opts := core.DefaultOptions()
		if *rtName == "rfdet-pf" {
			opts.Monitor = core.MonitorPF
		}
		opts.Trace = *trace
		opts.RaceDetect = *racecheck
		traced = core.New(opts)
		rt = traced
	case "dthreads":
		rt = dthreads.New()
	case "coredet":
		rt = dthreads.NewQuantum(*quantum)
	case "pthreads":
		rt = pthreads.New()
	default:
		fmt.Fprintf(os.Stderr, "rfdet-run: unknown runtime %q\n", *rtName)
		os.Exit(2)
	}
	if *trace && traced == nil {
		fmt.Fprintln(os.Stderr, "rfdet-run: -trace requires an rfdet runtime")
		os.Exit(2)
	}
	if *racecheck && traced == nil {
		fmt.Fprintln(os.Stderr, "rfdet-run: -racecheck requires an rfdet runtime")
		os.Exit(2)
	}

	hashes := map[uint64]int{}
	for i := 0; i < *repeat; i++ {
		var rep *api.Report
		var tr *core.Trace
		var err error
		if traced != nil {
			rep, tr, err = traced.RunTraced(w.Prog(cfg))
		} else {
			rep, err = rt.Run(w.Prog(cfg))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rfdet-run: %v\n", err)
			os.Exit(1)
		}
		hashes[rep.OutputHash]++
		if i == 0 {
			printReport(rt.Name(), w.Name, cfg, rep)
			if rep.Races != nil {
				fmt.Printf("\nhappens-before race report (deterministic; hash %#016x):\n", rep.Races.Hash())
				fmt.Print(rep.Races.String())
			}
			if tr != nil {
				fmt.Printf("\ndeterministic schedule (%d events):\n", len(tr.Lines))
				if _, err := tr.WriteTo(os.Stdout); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
		}
	}
	if *repeat > 1 {
		fmt.Printf("\n%d executions, %d distinct output hash(es)\n", *repeat, len(hashes))
	}
}

func printReport(runtime, workload string, cfg workloads.Config, rep *api.Report) {
	fmt.Printf("%s on %s (%d threads, size %s)\n", workload, runtime, cfg.Threads, cfg.Size)
	fmt.Printf("  output hash:   %#016x\n", rep.OutputHash)
	fmt.Printf("  observations:  %v\n", rep.Observations[0])
	fmt.Printf("  virtual time:  %d ns (modeled makespan)\n", rep.VirtualTime)
	fmt.Printf("  wall time:     %v\n", rep.Elapsed)
	fmt.Printf("  threads:       %d\n", rep.Threads)
	s := rep.Stats
	fmt.Printf("  sync ops:      lock/unlock %d/%d, wait/signal %d/%d, fork/join %d/%d, barrier %d, atomic %d\n",
		s.Locks, s.Unlocks, s.Waits, s.Signals, s.Forks, s.Joins, s.Barriers, s.AtomicsOps)
	fmt.Printf("  memory ops:    %d (%d loads, %d stores, %d with page copy)\n",
		s.MemOps(), s.Loads, s.Stores, s.StoresWithCopy)
	fmt.Printf("  memory:        shared %d KB, runtime %d KB, metadata %d KB of %d KB (GC passes: %d, %d more reclaimed nothing)\n",
		s.SharedMemBytes/1024, s.RuntimeMemBytes/1024, s.MetadataBytes/1024, s.MetadataCapacity/1024, s.GCCount, s.GCEmptyPasses)
	if s.SlicesCreated > 0 {
		fmt.Printf("  slices:        %d created, %d merged away, %d propagated (%d+%d filtered), %d KB moved\n",
			s.SlicesCreated, s.SlicesMerged, s.SlicesPropagated,
			s.SlicesFilteredLow, s.SlicesFilteredPremerged, s.BytesPropagated/1024)
	}
	if s.LazyPendingApplied > 0 || s.LazyRunsElided > 0 {
		fmt.Printf("  lazy writes:   %d runs pended, %d pended bytes covered by a later pend and never copied\n",
			s.LazyPendingApplied, s.LazyRunsElided)
	}
	if s.DirtyExtents > 0 {
		fmt.Printf("  dirty extents: %d consumed; diffs scanned %d KB, skipped %d KB\n",
			s.DirtyExtents, s.DiffBytesScanned/1024, s.DiffBytesSkipped/1024)
	}
	if s.RaceRecords > 0 {
		fmt.Printf("  race detect:   %d access records, %d KB of harvested read sets\n",
			s.RaceRecords, s.RaceReadBytes/1024)
	}
	if s.PageFaults > 0 || s.PageProtects > 0 {
		fmt.Printf("  protection:    %d faults, %d page protects\n", s.PageFaults, s.PageProtects)
	}
	fmt.Printf("  monitor:       %d acquires\n", s.MonitorAcquires)
	fmt.Printf("  kendo:         %d sync ops waited for the deterministic turn (host-dependent)\n", s.TurnWaits)
}
