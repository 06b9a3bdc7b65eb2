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
//
// Flags select the problem size (-size test|small|medium), the thread count
// (-threads), measurement repeats (-repeats), the run count of the
// determinism checks (-runs) and the replica count for the divergence check
// (-replicas). A Chrome-trace timeline of one execution is rfdet-run's
// -phases.
package main

import (
	"flag"
	"fmt"
	"os"

	"rfdet/internal/harness"
	"rfdet/internal/workloads"
)

// checkFlags rejects counts no experiment can run with, and a run or replica
// count that leaves nothing to compare: one output agrees with itself.
func checkFlags(threads, repeats, runs, replicas int) error {
	switch {
	case threads < 1:
		return fmt.Errorf("-threads must be at least 1, got %d", threads)
	case repeats < 1:
		return fmt.Errorf("-repeats must be at least 1, got %d", repeats)
	case runs < 2:
		return fmt.Errorf("-runs must be at least 2 (one output agrees with itself), got %d", runs)
	case replicas < 2:
		return fmt.Errorf("-replicas must be at least 2, got %d", replicas)
	}
	return nil
}

func main() {
	sz := workloads.SizeSmall
	flag.Var(&sz, "size", "problem size: test, small or medium")
	threads := flag.Int("threads", 4, "worker thread count for figure7, table1, propagation, phases, figure9, racetable and replicas")
	repeats := flag.Int("repeats", 1, "measurement repeats (median of virtual times)")
	runs := flag.Int("runs", 20, "executions per configuration for racey, litmus and racetable")
	replicas := flag.Int("replicas", 3, "KV-server replica count for the replicas command")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rfdet-bench [flags] figure7|table1|propagation|phases|figure8|figure9|racey|litmus|racetable|replicas|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := checkFlags(*threads, *repeats, *runs, *replicas); err != nil {
		fmt.Fprintf(os.Stderr, "rfdet-bench: %v\n", err)
		os.Exit(2)
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
		err = harness.RaceTable(os.Stdout, sz, *threads, *runs)
	case "replicas":
		err = harness.ReplicaTable(os.Stdout, sz, *threads, *replicas)
	case "all":
		err = harness.AllExperiments(os.Stdout, sz, *threads, *repeats, *runs)
	default:
		fmt.Fprintf(os.Stderr, "rfdet-bench: unknown command %q\n", cmd)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfdet-bench: %v\n", err)
		os.Exit(1)
	}
}
