// Package vtime defines the deterministic virtual-time cost model used to
// reproduce the paper's performance figures on any host.
//
// The paper measures wall-clock time on a 12-core AMD Opteron. A wall clock
// only exhibits parallel speedups and barrier-imbalance stalls when the host
// actually runs threads in parallel; to make the reproduction host-
// independent (and deterministic), every runtime in this repository also
// advances a per-thread virtual clock, discrete-event-simulation style:
//
//   - computation advances a thread's clock by its instrumented ticks
//     (1 unit ≈ 1 ns ≈ one memory instruction on the paper's testbed);
//   - runtime work (page snapshots, page diffs, modification application,
//     mprotect sweeps, protection faults) advances it by modeled costs whose
//     ratios mirror the real mechanisms (a fault costs microseconds, a 4 KiB
//     memcpy hundreds of nanoseconds, a memory instruction about one);
//   - blocking joins clocks: a lock acquirer resumes at
//     max(own, releaser's release time), barrier leavers resume at the max
//     of all arrivals, DThreads-style fences resume everyone at the max
//     arrival time plus the serialized commit costs.
//
// A program's virtual execution time is the maximum final clock over all
// threads (the makespan). All of the paper's comparisons — RFDet-ci vs
// RFDet-pf vs DThreads vs pthreads (Figure 7), thread scalability (Figure
// 8), the prelock and lazy-write optimizations (Figure 9) — are ratios of
// makespans, which this model preserves.
package vtime

// Time is virtual nanoseconds.
type Time uint64

// Cost constants, in virtual nanoseconds. Ratios matter, absolute values do
// not; these mirror the rough magnitudes on the paper's hardware (2.2 GHz
// Opteron, Linux 2.6.31).
const (
	// MemOp is the cost of one instrumented memory instruction, including
	// the surrounding address arithmetic — memory-bound code on the
	// paper's 2.2 GHz Opteron retires roughly one memory instruction every
	// ~3 ns.
	MemOp Time = 3
	// StoreCheck is RFDet-ci's per-store instrumentation overhead: the few
	// branch instructions of Figure 4 that test whether the store hits a
	// new page (§5.3).
	StoreCheck Time = 1
	// SyncBase is the fixed cost of a synchronization operation (the
	// uncontended pthreads fast path plus Kendo bookkeeping).
	SyncBase Time = 150
	// SnapshotPage is a 4 KiB page copy (first write to a page in a slice).
	// It is the paper's copy, charged whole whatever the host copies: mem
	// copies only the 64-byte chunks the slice stores to.
	SnapshotPage Time = 500
	// DiffPage is a byte-by-byte 4 KiB compare at slice end.
	DiffPage Time = 700
	// ApplyBytesPerNS is the modification-application bandwidth in bytes
	// per virtual nanosecond (bulk memcpy-like copying; consistent with
	// MemOp moving an 8-byte word per unit).
	ApplyBytesPerNS Time = 4
	// ApplyRun is the per-run fixed cost of modification application
	// (appending/walking one <addr, data> pair).
	ApplyRun Time = 5
	// ProtectPage is the per-page cost of an mprotect sweep over the shared
	// mapping (the dominant per-slice cost of the page-protection monitor,
	// §4.2/§5.2).
	ProtectPage Time = 40
	// Fault is a write-protection fault: signal delivery, handler, return
	// (microseconds on real hardware).
	Fault Time = 2500
	// LockHandoff is the cost of waking a blocked thread.
	LockHandoff Time = 300
	// FencePhase is the fixed cost of one DThreads/CoreDet global fence
	// (token circulation, bookkeeping).
	FencePhase Time = 1000
	// ThreadSpawn is thread creation (clone syscall and runtime setup).
	ThreadSpawn Time = 20000
)

// Max returns the later of two times.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// ApplyCost returns the modeled cost of applying nRuns modification runs
// totalling nBytes. The model charges every propagated slice individually,
// as the paper's system would apply it — host-side shortcuts (coalesced
// write plans, extent-guided diffing) must keep charging this per-slice
// cost so virtual times stay independent of which fast path ran.
func ApplyCost(nRuns, nBytes uint64) Time {
	return Time(nRuns)*ApplyRun + Time(nBytes)/ApplyBytesPerNS
}
