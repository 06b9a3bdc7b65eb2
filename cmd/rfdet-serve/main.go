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
	"rfdet/internal/workloads"
)

func main() {
	sz := workloads.SizeSmall
	flag.Var(&sz, "size", "problem size: test, small or medium")
	threads := flag.Int("threads", 4, "worker threads per replica")
	replicas := flag.Int("replicas", 3, "replica count (alternates the ambient GOMAXPROCS and 1)")
	seed := flag.Uint64("seed", workloads.DefaultServerSeed, "request-log seed")
	matrix := flag.Bool("matrix", false, "run the 3-variant acceptance matrix instead of -replicas")
	injectAbort := flag.Bool("inject-abort", false, "poison the last replica's log to demonstrate divergent-by-abort reporting")
	flag.Parse()
	if err := checkFlags(*threads, *replicas); err != nil {
		fmt.Fprintf(os.Stderr, "rfdet-serve: %v\n", err)
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

	rep := harness.RunServerReplicas(workloads.Config{Threads: *threads, Size: sz}, *seed, variants)
	harness.WriteReplicaTable(os.Stdout, rep)
	if !rep.Divergent() {
		fmt.Println("\nverdict: REPLICAS AGREE — byte-identical state, responses and virtual time")
		if *injectAbort {
			fmt.Fprintln(os.Stderr, "rfdet-serve: -inject-abort expected a divergent-by-abort report")
			os.Exit(1)
		}
		return
	}
	if *injectAbort && len(rep.Divergences) == 1 && strings.Contains(rep.Divergences[0], "divergent-by-abort") {
		fmt.Println("\nverdict: injected abort reported as divergent-by-abort, clean replicas agree")
		return
	}
	fmt.Println("\nverdict: REPLICAS DIVERGED")
	os.Exit(1)
}

// checkFlags rejects a thread count no replica can run with and a replica
// count that leaves nothing to compare: one replica agrees with itself.
func checkFlags(threads, replicas int) error {
	switch {
	case threads < 1:
		return fmt.Errorf("-threads must be at least 1, got %d", threads)
	case replicas < 2:
		return fmt.Errorf("-replicas must be at least 2, got %d", replicas)
	}
	return nil
}
