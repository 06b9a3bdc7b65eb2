package harness

// Replicated divergence checking — determinism used for what production
// wants it for. A deterministic runtime turns active replication into a
// trivial protocol: run k replicas of the same request log and the replicas
// *must* be byte-identical, whatever host parallelism each one runs with
// (Aviram & Ford, "Efficient System-Enforced Deterministic Parallelism").
// This file runs k replicas of the KV server workload across differing
// GOMAXPROCS, byte-compares their state hashes, response hashes, full
// observation logs and virtual times, and reports requests/sec in virtual and
// host time plus per-request phase breakdowns from the phase trace. A replica
// whose run aborts is reported as divergent-by-abort, never hung.

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"rfdet/internal/core"
	"rfdet/internal/trace"
	"rfdet/internal/workloads"
)

// ReplicaVariant describes one replica's execution environment. Everything
// here is host-side strategy: none of it may change a deterministic
// observable, which is exactly what the divergence check enforces.
type ReplicaVariant struct {
	// Name labels the variant in reports ("ambient/r0", "p4", ...).
	Name string
	// Procs pins GOMAXPROCS for the replica's run (0 keeps the ambient
	// value, so external matrix sweeps stay in control).
	Procs int
	// Opts is the RFDet configuration the replica runs with.
	Opts core.Options
	// InjectAbort poisons the replica's request log with one failing
	// request (a zero-count barrier mid-log): the run must abort
	// recoverably and be reported as divergent-by-abort.
	InjectAbort bool
}

// ReplicaRun is one replica's outcome.
type ReplicaRun struct {
	Variant string
	Procs   int // GOMAXPROCS the replica ran at
	// Err is non-nil when the replica aborted; the remaining fields are
	// then zero and the replica is reported as divergent-by-abort.
	Err error

	Summary   workloads.ServerSummary
	ObsDigest uint64 // full observation log, api.Report.ObservationsDigest

	VirtualTime uint64
	Elapsed     time.Duration
	Phases      *trace.Report // nil unless the variant enabled PhaseTrace
}

// ReqPerSecVirtual is the replica's deterministic throughput: requests per
// second of modeled virtual time. Identical across agreeing replicas.
func (r *ReplicaRun) ReqPerSecVirtual(requests int) float64 {
	if r.VirtualTime == 0 {
		return 0
	}
	return float64(requests) * 1e9 / float64(r.VirtualTime)
}

// ReqPerSecHost is the replica's host throughput: requests per second of
// wall-clock time. Host-dependent, observability only.
func (r *ReplicaRun) ReqPerSecHost(requests int) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(requests) / r.Elapsed.Seconds()
}

// ReplicaReport is the outcome of one k-replica execution of a request log.
type ReplicaReport struct {
	Threads  int
	Size     workloads.Size
	Seed     uint64
	Requests int
	Runs     []ReplicaRun
	// Divergences lists every disagreement found, one human-readable line
	// each; empty means all replicas were byte-identical.
	Divergences []string
}

// Divergent reports whether any replica disagreed (or aborted).
func (r *ReplicaReport) Divergent() bool { return len(r.Divergences) > 0 }

// RunServerReplicas runs one replica of the seeded KV server workload per
// variant and cross-checks every deterministic fingerprint: state hash,
// response hash, full observation digest and virtual time. Replica errors are
// captured per-run (divergent-by-abort), not returned: the caller always gets
// the full report.
func RunServerReplicas(cfg workloads.Config, seed uint64, variants []ReplicaVariant) *ReplicaReport {
	rep := &ReplicaReport{
		Threads:  cfg.Threads,
		Size:     cfg.Size,
		Seed:     seed,
		Requests: workloads.ServerRequests(cfg.Size),
	}
	for _, v := range variants {
		rep.Runs = append(rep.Runs, runOneReplica(cfg, seed, rep.Requests, v))
	}

	// Divergence check against the first clean replica.
	ref := -1
	for i := range rep.Runs {
		run := &rep.Runs[i]
		if run.Err != nil {
			rep.Divergences = append(rep.Divergences,
				fmt.Sprintf("replica %d (%s): divergent-by-abort: %v", i, run.Variant, run.Err))
			continue
		}
		if ref < 0 {
			ref = i
			continue
		}
		r0 := &rep.Runs[ref]
		diverge := func(what string, got, want uint64) {
			rep.Divergences = append(rep.Divergences,
				fmt.Sprintf("replica %d (%s): %s %#x != replica %d (%s) %#x",
					i, run.Variant, what, got, ref, r0.Variant, want))
		}
		if run.Summary.StateHash != r0.Summary.StateHash {
			diverge("state hash", run.Summary.StateHash, r0.Summary.StateHash)
		}
		if run.Summary.ResponseHash != r0.Summary.ResponseHash {
			diverge("response hash", run.Summary.ResponseHash, r0.Summary.ResponseHash)
		}
		if run.ObsDigest != r0.ObsDigest {
			diverge("observation digest", run.ObsDigest, r0.ObsDigest)
		}
		if run.VirtualTime != r0.VirtualTime {
			diverge("virtual time", run.VirtualTime, r0.VirtualTime)
		}
	}
	return rep
}

func runOneReplica(cfg workloads.Config, seed uint64, requests int, v ReplicaVariant) ReplicaRun {
	run := ReplicaRun{Variant: v.Name, Procs: v.Procs}
	if v.Procs > 0 {
		old := runtime.GOMAXPROCS(v.Procs)
		defer runtime.GOMAXPROCS(old)
	} else {
		run.Procs = runtime.GOMAXPROCS(0)
	}
	prog := workloads.ServerSeeded(cfg, seed)
	if v.InjectAbort {
		prog = workloads.ServerPoisoned(cfg, seed, requests/2)
	}
	r, err := core.New(v.Opts).Run(prog)
	if err != nil {
		run.Err = err
		return run
	}
	sum, err := workloads.SummarizeServer(r)
	if err != nil {
		run.Err = err
		return run
	}
	run.Summary = sum
	run.ObsDigest = r.ObservationsDigest()
	run.VirtualTime = r.VirtualTime
	run.Elapsed = r.Elapsed
	run.Phases = r.Phases
	return run
}

// DefaultVariants returns k replica variants alternating between the ambient
// GOMAXPROCS — so CI matrix sweeps control host parallelism externally — and
// one processor, all with phase tracing on so the replica table can report
// per-request phase costs.
func DefaultVariants(k int) []ReplicaVariant {
	base := []ReplicaVariant{
		{Name: "ambient", Opts: core.DefaultOptions()},
		{Name: "p1", Procs: 1, Opts: core.DefaultOptions()},
	}
	variants := make([]ReplicaVariant, 0, k)
	for i := 0; i < k; i++ {
		v := base[i%len(base)]
		v.Name = fmt.Sprintf("%s/r%d", v.Name, i)
		v.Opts.PhaseTrace = true
		variants = append(variants, v)
	}
	return variants
}

// MatrixVariants returns the full acceptance matrix: GOMAXPROCS {1,4,8} — 3
// replicas of the same request log, every one of which must be
// byte-identical to the rest.
func MatrixVariants() []ReplicaVariant {
	var variants []ReplicaVariant
	for _, procs := range []int{1, 4, 8} {
		variants = append(variants, ReplicaVariant{
			Name:  fmt.Sprintf("p%d", procs),
			Procs: procs,
			Opts:  core.DefaultOptions(),
		})
	}
	return variants
}

// WriteReplicaTable renders a replica report: one row per replica with its
// deterministic fingerprints, requests/sec in virtual and host time, the
// per-request phase costs and the turn-wait span percentiles, then one line
// per divergence. The phase columns of a replica run without phase tracing
// read zero.
func WriteReplicaTable(out io.Writer, rep *ReplicaReport) {
	fmt.Fprintf(out, "KV-server replica divergence check (%d replicas × %d requests, seed %#x, %d worker threads, size %s)\n\n",
		len(rep.Runs), rep.Requests, rep.Seed, rep.Threads, rep.Size)
	fmt.Fprintf(out, "%-16s %5s %18s %18s %12s %10s %10s | %8s %8s %8s | %8s %8s %8s\n",
		"replica", "procs", "state", "responses", "vtime", "req/s(v)", "req/s(w)",
		"turn", "diff", "apply",
		"tw-p50", "tw-p95", "tw-p99")
	for _, run := range rep.Runs {
		if run.Err != nil {
			fmt.Fprintf(out, "%-16s %5d divergent-by-abort: %v\n", run.Variant, run.Procs, run.Err)
			continue
		}
		per := run.Phases.PerOp(uint64(rep.Requests))
		pct := run.Phases.PhasePercentiles()[trace.PhaseTurnWait]
		fmt.Fprintf(out, "%-16s %5d %#018x %#018x %12d %10.0f %10.0f | %7dns %7dns %7dns | %7dns %7dns %7dns\n",
			run.Variant, run.Procs,
			run.Summary.StateHash, run.Summary.ResponseHash,
			run.VirtualTime,
			run.ReqPerSecVirtual(rep.Requests), run.ReqPerSecHost(rep.Requests),
			per[trace.PhaseTurnWait].Nanoseconds(),
			per[trace.PhaseDiff].Nanoseconds(),
			per[trace.PhaseApply].Nanoseconds(),
			pct.P50.Nanoseconds(), pct.P95.Nanoseconds(), pct.P99.Nanoseconds())
	}
	for _, d := range rep.Divergences {
		fmt.Fprintf(out, "DIVERGED: %s\n", d)
	}
}

// ReplicaTable renders the replica-divergence artifact: k replicas of the
// same KV-server request log (DefaultVariants) through WriteReplicaTable. It
// errors if any replica diverges — this table doubles as the end-to-end wall
// rfdet-bench runs.
func ReplicaTable(out io.Writer, size workloads.Size, threads, k int) error {
	cfg := workloads.Config{Threads: threads, Size: size}
	rep := RunServerReplicas(cfg, workloads.DefaultServerSeed, DefaultVariants(k))
	WriteReplicaTable(out, rep)
	if rep.Divergent() {
		return fmt.Errorf("harness: %d replica divergences", len(rep.Divergences))
	}
	fmt.Fprintln(out, "\nEvery replica produced byte-identical state/response hashes, observation logs")
	fmt.Fprintln(out, "and virtual times: the active-replication property, checked end to end. req/s(v)")
	fmt.Fprintln(out, "is deterministic virtual-time throughput; req/s(w), the per-request phase costs")
	fmt.Fprintln(out, "(turn-wait, diff, apply) and the turn-wait span percentiles (tw-p50/p95/p99,")
	fmt.Fprintln(out, "nearest-rank over individual spans) are host-dependent observability.")
	return nil
}
