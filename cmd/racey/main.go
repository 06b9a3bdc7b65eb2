// Command racey is the determinism stress test of paper §5.1: a program
// built out of data races (after Hill & Xu's racey) whose final signature
// changes if any scheduling or memory-visibility decision changes.
//
// The paper runs racey 1000 times with 2, 4 and 8 threads and requires one
// output per configuration. This command does the same (default 100 runs;
// use -runs 1000 for the paper's count) on the selected runtime.
//
//	racey [-runtime rfdet-ci|rfdet-pf|dthreads|coredet|pthreads] [-runs N] [-threads N]
//
// With -detect the happens-before race detector runs instead: racey is
// executed 20 times per thread count and the deterministic race report must
// be non-empty and byte-identical on every run.
//
//	racey -detect [-threads N] [-size test|small|medium]
package main

import (
	"flag"
	"fmt"
	"os"

	"rfdet"
	"rfdet/internal/workloads"
)

func main() {
	rtName := flag.String("runtime", "rfdet-ci", "runtime: rfdet-ci, rfdet-pf, dthreads, coredet or pthreads")
	runs := flag.Int("runs", 100, "executions per thread count")
	threadsFlag := flag.Int("threads", 0, "run only this thread count (default: 2, 4 and 8)")
	sz := workloads.SizeSmall
	flag.Var(&sz, "size", "problem size: test, small or medium")
	detect := flag.Bool("detect", false, "run the happens-before race detector (rfdet-ci only) and require a stable report across 20 runs")
	flag.Parse()
	if err := checkFlags(*threadsFlag, *runs); err != nil {
		fmt.Fprintf(os.Stderr, "racey: %v\n", err)
		os.Exit(2)
	}

	var rt rfdet.Runtime
	switch *rtName {
	case "rfdet-ci":
		rt = rfdet.NewCI()
	case "rfdet-pf":
		rt = rfdet.NewPF()
	case "dthreads":
		rt = rfdet.NewDThreads()
	case "coredet":
		rt = rfdet.NewCoreDet(50000)
	case "pthreads":
		rt = rfdet.NewPThreads()
	default:
		fmt.Fprintf(os.Stderr, "racey: unknown runtime %q\n", *rtName)
		os.Exit(2)
	}
	racey, err := workloads.ByName("racey")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	threadCounts := []int{2, 4, 8}
	if *threadsFlag > 0 {
		threadCounts = []int{*threadsFlag}
	}
	if *detect {
		if *rtName != "rfdet-ci" {
			fmt.Fprintln(os.Stderr, "racey: -detect requires -runtime rfdet-ci")
			os.Exit(2)
		}
		detectRaces(racey, threadCounts, sz)
		return
	}
	fail := false
	for _, n := range threadCounts {
		seen := map[uint64]int{}
		var firstSig uint64
		for i := 0; i < *runs; i++ {
			rep, err := rt.Run(racey.Prog(workloads.Config{Threads: n, Size: sz}))
			if err != nil {
				fmt.Fprintf(os.Stderr, "racey: %v\n", err)
				os.Exit(1)
			}
			sig := rep.Observations[0][0]
			if len(seen) == 0 {
				firstSig = sig
			}
			seen[sig]++
		}
		fmt.Printf("%s, %d threads, %d runs: %d distinct signature(s); first signature %#016x\n",
			rt.Name(), n, *runs, len(seen), firstSig)
		if len(seen) > 1 && *rtName != "pthreads" {
			fail = true
		}
	}
	if fail {
		fmt.Println("NONDETERMINISM DETECTED — the runtime failed the racey stress test")
		os.Exit(1)
	}
	if *rtName == "pthreads" {
		fmt.Println("(pthreads is expected to be nondeterministic; distinct counts above 1 are normal)")
	} else {
		fmt.Println("deterministic: every run produced the same signature (§5.1)")
	}
}

// checkFlags rejects a negative thread count (0 selects the default sweep)
// and a run count that leaves nothing to compare: one signature agrees with
// itself.
func checkFlags(threads, runs int) error {
	switch {
	case threads < 0:
		return fmt.Errorf("-threads must be 0 (2, 4 and 8) or at least 1, got %d", threads)
	case runs < 2:
		return fmt.Errorf("-runs must be at least 2, got %d", runs)
	}
	return nil
}

// detectRaces runs racey under the happens-before race detector 20 times per
// thread count: the report must be non-empty (racey is races by design) and
// byte-identical across all runs — a deterministic artifact like the output.
func detectRaces(racey workloads.Workload, threadCounts []int, sz workloads.Size) {
	const detectRuns = 20
	rt := rfdet.NewCIRace()
	for _, n := range threadCounts {
		var first string
		var firstHash uint64
		var races int
		for i := 0; i < detectRuns; i++ {
			rep, err := rt.Run(racey.Prog(workloads.Config{Threads: n, Size: sz}))
			if err != nil {
				fmt.Fprintf(os.Stderr, "racey: %v\n", err)
				os.Exit(1)
			}
			if rep.Races == nil {
				fmt.Fprintln(os.Stderr, "racey: runtime produced no race report")
				os.Exit(1)
			}
			if i == 0 {
				first, firstHash, races = rep.Races.String(), rep.Races.Hash(), len(rep.Races.Races)
				continue
			}
			if rep.Races.String() != first {
				fmt.Fprintf(os.Stderr, "racey: race report diverged on run %d (%d threads)\n", i, n)
				os.Exit(1)
			}
		}
		fmt.Printf("%s, %d threads, %d runs: %d race(s), report hash %#016x — stable across all runs\n",
			rt.Name(), n, detectRuns, races, firstHash)
		if races == 0 {
			fmt.Fprintln(os.Stderr, "racey: detector found no races in a program made of races")
			os.Exit(1)
		}
	}
	fmt.Println("race report is a deterministic artifact: byte-identical on every run")
}
