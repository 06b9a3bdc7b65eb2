// Command rfdet-bench regenerates the paper's evaluation artifacts:
//
//	rfdet-bench figure7   execution time normalized to pthreads (Figure 7)
//	rfdet-bench table1    per-benchmark profiling data (Table 1)
//	rfdet-bench propagation  write-plan propagation profile
//	rfdet-bench phases    phase-level wall-clock breakdown (observability)
//	rfdet-bench figure8   scalability, 2→4→8 threads (Figure 8)
//	rfdet-bench figure9   prelock / lazy-writes optimization study (Figure 9)
//	rfdet-bench racey     the §5.1 determinism stress test
//	rfdet-bench litmus    the DLRC memory-model litmus table (§3)
//	rfdet-bench racetable happens-before race detection vs litmus classification (DESIGN.md §12)
//	rfdet-bench replicas  KV-server k-replica divergence check + requests/sec (DESIGN.md §14)
//	rfdet-bench all       everything, in paper order
//	rfdet-bench validate-trace <file>  check an exported trace file
//
// Flags select the problem size (-size test|small|medium), the thread count
// (-threads), measurement repeats (-repeats), racey run count (-runs) and the
// replica count for the divergence check (-replicas).
//
// -trace out.json runs one workload (-traceworkload, default wordcount) under
// RFDet-ci with phase tracing enabled and writes the phase timeline as
// Chrome-trace JSON, loadable in chrome://tracing or Perfetto. It can be used
// standalone (no command argument) or before any command.
package main

import (
	"flag"
	"fmt"
	"os"

	"rfdet/internal/harness"
	"rfdet/internal/trace"
	"rfdet/internal/workloads"
)

// writeTrace runs one workload under RFDet-ci with phase tracing and writes
// the Chrome-trace JSON to path, echoing the per-phase summary to stdout.
func writeTrace(path, workload string, sz workloads.Size, threads int) error {
	w, err := workloads.ByName(workload)
	if err != nil {
		return err
	}
	cfg := workloads.Config{Threads: threads, Size: sz}
	res, err := harness.Run(harness.NewRFDetCITraced(), w, cfg, 1)
	if err != nil {
		return err
	}
	ph := res.Report.Phases
	if ph == nil {
		return fmt.Errorf("trace: %s ran without a phase report", workload)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ph.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("phase trace of %s (%d threads, size %s) written to %s\n\n",
		workload, threads, sz, path)
	if err := ph.WriteSummary(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nopen in chrome://tracing or https://ui.perfetto.dev\n")
	return nil
}

// validateTrace checks that an exported file parses as Chrome-trace JSON and
// satisfies the exporter's invariants (non-negative timestamps, per-thread
// well-nested duration events).
func validateTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := trace.ValidateChrome(data); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: valid Chrome-trace JSON\n", path)
	return nil
}

// checkFlags rejects counts no experiment can run with, and a replica count
// that leaves nothing to compare: one replica agrees with itself.
func checkFlags(threads, repeats, runs, replicas int) error {
	switch {
	case threads < 1:
		return fmt.Errorf("-threads must be at least 1, got %d", threads)
	case repeats < 1:
		return fmt.Errorf("-repeats must be at least 1, got %d", repeats)
	case runs < 1:
		return fmt.Errorf("-runs must be at least 1, got %d", runs)
	case replicas < 2:
		return fmt.Errorf("-replicas must be at least 2, got %d", replicas)
	}
	return nil
}

func main() {
	sz := workloads.SizeSmall
	flag.Var(&sz, "size", "problem size: test, small or medium")
	threads := flag.Int("threads", 4, "worker thread count for figure7, table1, propagation, phases, figure9, racetable, replicas and -trace")
	repeats := flag.Int("repeats", 1, "measurement repeats (median of virtual times)")
	runs := flag.Int("runs", 20, "racey executions per configuration")
	replicas := flag.Int("replicas", 3, "KV-server replica count for the replicas command")
	tracePath := flag.String("trace", "", "write a Chrome-trace phase timeline of one workload to this file")
	traceWorkload := flag.String("traceworkload", "wordcount", "workload to trace with -trace")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rfdet-bench [flags] figure7|table1|propagation|phases|figure8|figure9|racey|litmus|racetable|replicas|all\n")
		fmt.Fprintf(os.Stderr, "       rfdet-bench [flags] validate-trace <file>\n")
		fmt.Fprintf(os.Stderr, "       rfdet-bench [flags] -trace out.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := checkFlags(*threads, *repeats, *runs, *replicas); err != nil {
		fmt.Fprintf(os.Stderr, "rfdet-bench: %v\n", err)
		os.Exit(2)
	}

	if *tracePath != "" {
		if err := writeTrace(*tracePath, *traceWorkload, sz, *threads); err != nil {
			fmt.Fprintf(os.Stderr, "rfdet-bench: %v\n", err)
			os.Exit(1)
		}
		if flag.NArg() == 0 {
			return
		}
	}
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	var err error
	switch cmd := flag.Arg(0); cmd {
	case "figure7":
		err = harness.Figure7(os.Stdout, sz, *threads, *repeats)
	case "table1":
		err = harness.Table1(os.Stdout, sz, *threads)
	case "propagation":
		err = harness.PropagationTable(os.Stdout, sz, *threads)
	case "phases":
		err = harness.PhaseTable(os.Stdout, sz, *threads)
	case "figure8":
		err = harness.Figure8(os.Stdout, sz, *repeats)
	case "figure9":
		err = harness.Figure9(os.Stdout, sz, *threads, *repeats)
	case "racey":
		err = harness.RaceyCheck(os.Stdout, harness.RaceyRuntimes(), []int{2, 4, 8}, sz, *runs)
	case "litmus":
		err = harness.LitmusTable(os.Stdout, *runs)
	case "racetable":
		err = harness.RaceTable(os.Stdout, sz, *threads)
	case "replicas":
		err = harness.ReplicaTable(os.Stdout, sz, *threads, *replicas)
	case "all":
		err = harness.AllExperiments(os.Stdout, sz, *threads, *repeats, *runs)
	case "validate-trace":
		if flag.NArg() != 2 {
			fmt.Fprintf(os.Stderr, "usage: rfdet-bench validate-trace <file>\n")
			os.Exit(2)
		}
		err = validateTrace(flag.Arg(1))
	default:
		fmt.Fprintf(os.Stderr, "rfdet-bench: unknown command %q\n", cmd)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfdet-bench: %v\n", err)
		os.Exit(1)
	}
}
