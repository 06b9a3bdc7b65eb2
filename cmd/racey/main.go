// Command racey is the determinism stress test of paper §5.1: a program
// built out of data races (after Hill & Xu's racey) whose final output
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
//
// The exit status is 1 when a deterministic runtime produced two outputs, a
// race report diverged or came out empty, or a run failed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"rfdet"
	"rfdet/internal/api"
	"rfdet/internal/harness"
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
	threadCounts := []int{2, 4, 8}
	if *threadsFlag > 0 {
		threadCounts = []int{*threadsFlag}
	}
	if *detect && *rtName != "rfdet-ci" {
		fmt.Fprintln(os.Stderr, "racey: -detect requires -runtime rfdet-ci")
		os.Exit(2)
	}

	var err error
	if *detect {
		err = detectRaces(threadCounts, sz)
	} else {
		err = harness.RaceyCheck(os.Stdout, []api.Runtime{rt}, threadCounts, sz, *runs)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "racey: %v\n", err)
		os.Exit(1)
	}
	switch {
	case *detect:
		fmt.Println("race report is a deterministic artifact: byte-identical on every run")
	case *rtName == "pthreads":
		fmt.Println("(pthreads is expected to be nondeterministic; distinct counts above 1 are normal)")
	default:
		fmt.Println("deterministic: every run produced the same output (§5.1)")
	}
}

// checkFlags rejects a negative thread count (0 selects the default sweep)
// and a run count that leaves nothing to compare: one output agrees with
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

// detectRaces requires racey's race report, at every thread count, to be
// byte-identical across 20 runs and non-empty: racey is races by design.
func detectRaces(threadCounts []int, sz workloads.Size) error {
	const detectRuns = 20
	racey, err := workloads.ByName("racey")
	if err != nil {
		return err
	}
	for _, n := range threadCounts {
		cfg := workloads.Config{Threads: n, Size: sz}
		rep, err := harness.StableRaceReport("racey", detectRuns, func(rt api.Runtime) (*api.Report, error) {
			return rt.Run(racey.Prog(cfg))
		})
		if err != nil {
			return err
		}
		races := len(rep.Races.Races)
		fmt.Printf("rfdet-ci, %d threads, %d runs: %d race(s), report hash %#016x — stable across all runs\n",
			n, detectRuns, races, rep.Races.Hash())
		if races == 0 {
			return errors.New("detector found no races in a program made of races")
		}
	}
	return nil
}
