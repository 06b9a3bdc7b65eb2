// Command rfdet-serve runs the deterministic KV server workload as k
// replicas of one request log and byte-compares every deterministic
// fingerprint — the active-replication use case for deterministic
// multithreading: replicas that cannot diverge.
//
//	rfdet-serve                          3 replicas, alternating the ambient
//	                                     GOMAXPROCS and 1
//	rfdet-serve -replicas 6 -threads 8   wider fleet, 8 worker threads each
//	rfdet-serve -matrix                  the 3-variant acceptance matrix
//	                                     (GOMAXPROCS {1,4,8})
//	rfdet-serve -inject-abort            poison one replica's log: it must be
//	                                     reported divergent-by-abort, the rest
//	                                     must still agree
//
// -seed picks the request log. The exit status is the verdict: 0
// when the replicas agree (or, under -inject-abort, when the only divergence
// is the injected abort), 1 on any real divergence.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rfdet/internal/harness"
	"rfdet/internal/trace"
	"rfdet/internal/workloads"
)

func main() {
	size := flag.String("size", "small", "problem size: test, small or medium")
	threads := flag.Int("threads", 4, "worker threads per replica")
	replicas := flag.Int("replicas", 3, "replica count (alternates the ambient GOMAXPROCS and 1)")
	seed := flag.Uint64("seed", workloads.DefaultServerSeed, "request-log seed")
	matrix := flag.Bool("matrix", false, "run the 3-variant acceptance matrix instead of -replicas")
	injectAbort := flag.Bool("inject-abort", false, "poison the last replica's log to demonstrate divergent-by-abort reporting")
	flag.Parse()

	var sz workloads.Size
	switch *size {
	case "test":
		sz = workloads.SizeTest
	case "small":
		sz = workloads.SizeSmall
	case "medium":
		sz = workloads.SizeMedium
	default:
		fmt.Fprintf(os.Stderr, "rfdet-serve: unknown size %q\n", *size)
		os.Exit(2)
	}

	var variants []harness.ReplicaVariant
	if *matrix {
		variants = harness.MatrixVariants()
	} else {
		variants = harness.DefaultVariants(*replicas)
	}
	if *injectAbort && len(variants) > 0 {
		variants[len(variants)-1].InjectAbort = true
	}

	cfg := workloads.Config{Threads: *threads, Size: sz}
	rep := harness.RunServerReplicas(cfg, *seed, variants)

	fmt.Printf("deterministic KV server: %d replicas × %d requests (seed %#x, %d worker threads, size %s)\n\n",
		len(rep.Runs), rep.Requests, rep.Seed, *threads, sz)
	fmt.Printf("%-22s %5s %18s %18s %12s %10s %10s | %8s %8s %8s\n",
		"replica", "procs", "state", "responses", "vtime", "req/s(v)", "req/s(w)",
		"tw-p50", "tw-p95", "tw-p99")
	for _, run := range rep.Runs {
		if run.Err != nil {
			fmt.Printf("%-22s %5d divergent-by-abort: %v\n", run.Variant, run.Procs, run.Err)
			continue
		}
		tw := "       -        -        -"
		if run.Phases != nil {
			pct := run.Phases.PhasePercentiles()[trace.PhaseTurnWait]
			tw = fmt.Sprintf("%7dns %7dns %7dns",
				pct.P50.Nanoseconds(), pct.P95.Nanoseconds(), pct.P99.Nanoseconds())
		}
		fmt.Printf("%-22s %5d %#018x %#018x %12d %10.0f %10.0f | %s\n",
			run.Variant, run.Procs,
			run.Summary.StateHash, run.Summary.ResponseHash,
			run.VirtualTime,
			run.ReqPerSecVirtual(rep.Requests), run.ReqPerSecHost(rep.Requests),
			tw)
	}

	if !rep.Divergent() {
		fmt.Println("\nverdict: REPLICAS AGREE — byte-identical state, responses and virtual time")
		if *injectAbort {
			fmt.Fprintln(os.Stderr, "rfdet-serve: -inject-abort expected a divergent-by-abort report")
			os.Exit(1)
		}
		return
	}
	fmt.Println()
	abortsOnly := true
	for _, d := range rep.Divergences {
		fmt.Printf("DIVERGED: %s\n", d)
		if !strings.Contains(d, "divergent-by-abort") {
			abortsOnly = false
		}
	}
	if *injectAbort && abortsOnly && len(rep.Divergences) == 1 {
		fmt.Println("\nverdict: injected abort reported as divergent-by-abort, clean replicas agree")
		return
	}
	fmt.Println("\nverdict: REPLICAS DIVERGED")
	os.Exit(1)
}
