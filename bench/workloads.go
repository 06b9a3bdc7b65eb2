package main

import (
	"rfdet"
	"rfdet/internal/workloads"
)

// threads is the DMT worker count of every workload: the paper's middle
// configuration and the one the seed goldens pin.
const threads = 4

// kvPanel is how many request logs one kv_server invocation serves. A
// single 96-request log sets the execution time to ±12% and the allocation
// count to ±2% depending on which requests it drew, far more than any bound
// below; a panel drawn from the seed makes the workload "this traffic mix"
// instead of "this one log", and what is left of the seed in the medians is
// within the bounds.
const kvPanel = 64

// workload is one program the benchmark executes in a closed loop: the next
// execution starts when the previous Runtime.Run returns.
type workload struct {
	name string
	why  string
	// seeded programs are a function of their input; the others are
	// fixed-input kernels and the pin holds for every input.
	seeded bool
	// validate: the fingerprint check also runs Options.Validate. Off for
	// kv_server, which fails the validator's list-order invariant on every
	// run at this commit (deterministically, at every GOMAXPROCS, with the
	// golden output) — see README.md, "Known gaps".
	validate bool
	prog     func(input uint64) rfdet.ThreadFunc
	pin      fingerprint
}

var allWorkloads = []workload{
	{
		name: "kv_server",
		why: "end-to-end server: condvar queue, per-shard locks across monitor domains, atomics, 7-thread spawn/join, " +
			"short slice history; 64 seeded 96-request logs. Allocation diet and turn handoff must show here.",
		seeded: true,
		prog: func(input uint64) rfdet.ThreadFunc {
			return workloads.ServerSeeded(workloads.Config{Threads: threads, Size: workloads.SizeTest}, input)
		},
		pin: pinKVServer,
	},
	{
		name: "water_ns",
		why: "fixed input (seed unused). One-domain locks and lock-built barriers, 9440 sync ops, 94% turn-wait, " +
			"660 slice pointers scanned per sync op: indexed collection and direct handoff should move it most.",
		validate: true,
		prog: func(uint64) rfdet.ThreadFunc {
			return workloads.WaterNS(workloads.Config{Threads: threads, Size: workloads.SizeSmall})
		},
		pin: pinWaterNS,
	},
	{
		name: "fft",
		why: "fixed input (seed unused). Write-heavy memory path: snapshot, diff, plan-build, apply and arena interning " +
			"are 15% of thread lifetime here, at most 4% elsewhere; sync-layer cuts should not move it.",
		validate: true,
		prog: func(uint64) rfdet.ThreadFunc {
			return workloads.FFT(workloads.Config{Threads: threads, Size: workloads.SizeMedium})
		},
		pin: pinFFT,
	},
	{
		name: "matmul",
		why: "fixed input (seed unused). Read-mostly bypass with 8 sync ops: time is the Load/Store fast path plus " +
			"runtime start/stop; every sync, propagation and store optimisation must read no change here.",
		validate: true,
		prog: func(uint64) rfdet.ThreadFunc {
			return workloads.MatrixMultiply(workloads.Config{Threads: threads, Size: workloads.SizeMedium})
		},
		pin: pinMatmul,
	},
}

// inputs returns the program inputs one invocation cycles through: the seed
// itself first — so the default seed's first log is the pinned golden one —
// then values drawn from it.
func (w *workload) inputs(seed uint64, scale float64) []uint64 {
	if !w.seeded {
		return []uint64{seed}
	}
	n := int(kvPanel * scale)
	if n < 1 {
		n = 1
	}
	in := make([]uint64, n)
	in[0] = seed
	r := rng(seed)
	for i := 1; i < n; i++ {
		in[i] = r.next()
	}
	return in
}

// pinned reports whether the workload's static pin covers this input.
func (w *workload) pinned(input uint64) bool {
	return !w.seeded || input == workloads.DefaultServerSeed
}
