// Package rfdet is a Go reproduction of "Efficient Deterministic
// Multithreading Without Global Barriers" (Lu, Zhou, Bergan, Wang,
// PPoPP 2014): the RFDet runtime, which executes multithreaded programs
// deterministically — even in the presence of data races — using
// deterministic lazy release consistency (DLRC) instead of the global
// barriers of prior strong-DMT systems.
//
// # Programming model
//
// Programs are written against the Thread interface: a pthreads-like API
// over a simulated shared address space. Memory is addressed with Addr;
// mutexes, condition variables and barriers are identified by the address of
// the application object, exactly as in pthreads. The same program runs
// unchanged on four runtimes:
//
//   - NewCI / NewPF: RFDet with the compile-time-instrumentation or
//     page-protection modification monitor (the paper's RFDet-ci/RFDet-pf);
//   - NewDThreads: the DThreads-style global-fence baseline;
//   - NewCoreDet: a CoreDet/DMP-style quantum-barrier baseline;
//   - NewPThreads: conventional nondeterministic multithreading.
//
// # Quick start
//
//	rt := rfdet.NewCI()
//	rep, err := rt.Run(func(t rfdet.Thread) {
//	    counter := t.Malloc(8)
//	    mu := rfdet.Addr(64) // any address can back a mutex
//	    var ids []rfdet.ThreadID
//	    for i := 0; i < 4; i++ {
//	        ids = append(ids, t.Spawn(func(t rfdet.Thread) {
//	            t.Lock(mu)
//	            t.Store64(counter, t.Load64(counter)+1)
//	            t.Unlock(mu)
//	        }))
//	    }
//	    for _, id := range ids {
//	        t.Join(id)
//	    }
//	    t.Observe(t.Load64(counter))
//	})
//
// rep.OutputHash is identical on every run: the runtime guarantees that the
// program's observations and final memory are a pure function of its input.
//
// # Determinism vs host performance
//
// The deterministic results (outputs, virtual times, trace hashes) are
// independent of host-side execution strategy. Internal fast paths —
// sub-page dirty extents, coalesced last-writer-wins write plans, lazily
// pended run references — change only wall-clock time. They are the only
// paths, with no host-side choice left as an option: the seed-regression
// goldens, captured from the seed runtime before each was added, pin the
// equivalence.
package rfdet

import (
	"rfdet/internal/api"
	"rfdet/internal/core"
	"rfdet/internal/dthreads"
	"rfdet/internal/pthreads"
)

// Re-exported programming-model types; see internal/api for documentation.
type (
	// Addr is a virtual address in the simulated shared address space.
	Addr = api.Addr
	// Thread is the per-thread handle for all shared-state interaction.
	Thread = api.Thread
	// ThreadID identifies a logical thread.
	ThreadID = api.ThreadID
	// ThreadFunc is the body of a logical thread.
	ThreadFunc = api.ThreadFunc
	// Runtime executes programs.
	Runtime = api.Runtime
	// Report is the result of one execution.
	Report = api.Report
	// Stats holds per-execution profiling counters.
	Stats = api.Stats
)

// Options configures an RFDet runtime; see internal/core.
type Options = core.Options

// Monitor selects the modification monitor.
type Monitor = core.Monitor

// Monitor kinds.
const (
	// MonitorCI is the compile-time-instrumentation-style monitor
	// (RFDet-ci).
	MonitorCI = core.MonitorCI
	// MonitorPF is the page-protection monitor (RFDet-pf).
	MonitorPF = core.MonitorPF
)

// New returns an RFDet runtime with explicit options.
func New(opts Options) Runtime { return core.New(opts) }

// DefaultOptions returns the paper's best-performing RFDet-ci configuration
// (all optimizations on) — the options NewCI runs with. Callers that need
// one tweak start from here instead of reconstructing the option set.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewCI returns RFDet-ci with all optimizations enabled — the paper's
// best-performing configuration.
func NewCI() Runtime { return core.New(core.DefaultOptions()) }

// NewPF returns RFDet-pf (page-protection monitoring) with all optimizations
// enabled.
func NewPF() Runtime {
	opts := core.DefaultOptions()
	opts.Monitor = core.MonitorPF
	return core.New(opts)
}

// NewCIRace returns RFDet-ci with the happens-before race detector enabled:
// Report.Races carries the deterministic race report. Detection is strictly
// observational — outputs, virtual times and traces are identical to NewCI's.
func NewCIRace() Runtime {
	opts := core.DefaultOptions()
	opts.RaceDetect = true
	return core.New(opts)
}

// NewDThreads returns the DThreads-style global-fence baseline.
func NewDThreads() Runtime { return dthreads.New() }

// NewCoreDet returns a CoreDet/DMP-style quantum-barrier baseline with the
// given quantum in logical instructions.
func NewCoreDet(quantum uint64) Runtime { return dthreads.NewQuantum(quantum) }

// NewRCDC returns an RCDC-style baseline (§2): quantum barriers plus the
// same-thread lock fast path — the closest prior system to DLRC, which §3.1
// contrasts against (two threads still cannot hand a lock over without a
// global barrier).
func NewRCDC(quantum uint64) Runtime { return dthreads.NewRCDC(quantum) }

// NewPThreads returns the conventional nondeterministic baseline.
func NewPThreads() Runtime { return pthreads.New() }
