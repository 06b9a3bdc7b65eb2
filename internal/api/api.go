// Package api defines the runtime-agnostic programming model shared by all
// runtimes in this repository: the conventional nondeterministic runtime
// (pthreads), the DThreads-style and CoreDet-style baselines, and RFDet
// itself. Workloads are written once against api.Thread and run unchanged on
// every runtime, exactly as the paper's C benchmarks run unchanged on
// pthreads, DThreads and RFDet.
//
// Addresses name locations in a simulated shared address space. As in
// pthreads, synchronization variables are identified by the address of the
// application object (a mutex, condition variable or barrier lives at an
// Addr); each runtime maps that address to an internal synchronization
// variable (paper §4.1, "internal synchronization variables").
package api

import (
	"sort"
	"time"

	"rfdet/internal/racecheck"
	"rfdet/internal/trace"
)

// Addr is a virtual address in the simulated shared address space.
type Addr uint64

// ThreadID identifies a logical DMT thread. IDs are assigned in creation
// order, which every deterministic runtime makes deterministic; ID 0 is the
// main thread.
type ThreadID int32

// ThreadFunc is the body of a logical thread.
type ThreadFunc func(t Thread)

// Thread is the per-thread handle through which all interaction with shared
// state happens. Loads and stores advance the thread's logical clock by one,
// mirroring the paper's compile-time instrumentation that counts memory
// instructions per basic block (§4.1); compute-only phases must call Tick,
// mirroring instrTick(k).
//
// A Thread handle must only be used from the goroutine running its
// ThreadFunc.
type Thread interface {
	// ID returns this thread's deterministic thread ID.
	ID() ThreadID

	// Load8 reads one byte of shared memory.
	Load8(a Addr) uint8
	// Store8 writes one byte of shared memory.
	Store8(a Addr, v uint8)
	// Load32 reads a little-endian uint32.
	Load32(a Addr) uint32
	// Store32 writes a little-endian uint32.
	Store32(a Addr, v uint32)
	// Load64 reads a little-endian uint64.
	Load64(a Addr) uint64
	// Store64 writes a little-endian uint64.
	Store64(a Addr, v uint64)
	// LoadF64 reads a float64 stored by StoreF64.
	LoadF64(a Addr) float64
	// StoreF64 writes a float64 as its IEEE-754 bit pattern.
	StoreF64(a Addr, v float64)
	// ReadBytes fills buf from shared memory starting at a.
	ReadBytes(a Addr, buf []byte)
	// WriteBytes copies data into shared memory starting at a.
	WriteBytes(a Addr, data []byte)

	// Malloc allocates size bytes of shared memory and returns its address.
	// Allocations made by different threads never overlap (§4.4).
	Malloc(size uint64) Addr
	// Free releases an allocation returned by Malloc.
	Free(a Addr)

	// Lock acquires the mutex at address m (pthread_mutex_lock).
	Lock(m Addr)
	// Unlock releases the mutex at address m (pthread_mutex_unlock).
	Unlock(m Addr)
	// Wait atomically releases m and blocks on the condition variable at c,
	// reacquiring m before returning (pthread_cond_wait).
	Wait(c, m Addr)
	// Signal wakes one waiter of the condition variable at c.
	Signal(c Addr)
	// Broadcast wakes all waiters of the condition variable at c.
	Broadcast(c Addr)
	// Barrier blocks until n threads have arrived at the barrier at b.
	Barrier(b Addr, n int)

	// Spawn starts a new logical thread (pthread_create) and returns its
	// deterministic thread ID.
	Spawn(fn ThreadFunc) ThreadID
	// Join blocks until the thread with the given ID has exited
	// (pthread_join) and, in DMT runtimes, propagates its memory updates.
	Join(id ThreadID)

	// AtomicAdd64 atomically adds delta to the word at a and returns the new
	// value. In RFDet this is the §4.6 low-level-atomics extension: a
	// Kendo-ordered acquire+release micro-operation.
	AtomicAdd64(a Addr, delta uint64) uint64
	// AtomicCAS64 atomically compares-and-swaps the word at a.
	AtomicCAS64(a Addr, old, new uint64) bool

	// Tick advances the thread's logical clock by n, standing in for n
	// uninstrumented instructions (instrTick in §4.1).
	Tick(n uint64)

	// Observe appends values to the thread's deterministic output log. The
	// logs of all threads, concatenated in thread-ID order, form the
	// program's output and are folded into Report.OutputHash.
	Observe(vals ...uint64)
}

// Runtime executes a program (a main ThreadFunc) to completion.
type Runtime interface {
	// Name identifies the runtime in reports ("pthreads", "dthreads",
	// "rfdet-ci", "rfdet-pf", "coredet").
	Name() string
	// Run executes main as thread 0, waits for the whole program to finish,
	// and returns the execution report. Run may be called repeatedly; each
	// call is an independent program execution.
	Run(main ThreadFunc) (*Report, error)
}

// Stats aggregates the profiling counters reported in Table 1 of the paper,
// plus runtime-internal counters used by the optimization studies.
type Stats struct {
	// Synchronization operation counts (Table 1, "sync ops").
	Locks      uint64 // pthread_mutex_lock
	Unlocks    uint64 // pthread_mutex_unlock
	Waits      uint64 // pthread_cond_wait
	Signals    uint64 // pthread_cond_signal + broadcast
	Forks      uint64 // pthread_create
	Joins      uint64 // pthread_join
	Barriers   uint64 // barrier arrivals
	AtomicsOps uint64 // extension: low-level atomic operations

	// Memory operation counts (Table 1, "memory ops").
	Loads          uint64 // instrumented load instructions
	Stores         uint64 // instrumented store instructions
	StoresWithCopy uint64 // stores that triggered a page snapshot ("store w/ copy")

	// Memory footprint in bytes (Table 1, "memory footprint").
	SharedMemBytes   uint64 // high-water shared (non-stack) application memory
	RuntimeMemBytes  uint64 // total runtime footprint (N*shared + metadata for RFDet)
	MetadataBytes    uint64 // high-water metadata-space usage
	MetadataCapacity uint64 // configured metadata-space size

	// Garbage collection (Table 1, "GC"). GCCount counts only passes that
	// reclaimed at least one slice; passes triggered (typically by snapshot
	// churn crossing the threshold) that found nothing below the frontier
	// are reported separately as GCEmptyPasses, so they cannot inflate the
	// Table 1 column.
	GCCount       uint64 // reclaiming slice garbage-collection passes
	GCEmptyPasses uint64 // GC passes that reclaimed nothing

	// Read 0: they counted the epoch store's arena traffic, and the runtime
	// constructs the map store only (DESIGN.md §16). The fields stay because
	// bench/metrics.go, which is frozen, reads them; they go with those two
	// benchmark rows (ROADMAP item 1).
	ArenaChunksAllocated uint64 //detvet:statwire always 0; read by bench/metrics.go (frozen) until ROADMAP item 1 drops slicestore.arena_reuse_ratio.
	ArenaChunksReused    uint64 //detvet:statwire always 0; read by bench/metrics.go (frozen) until ROADMAP item 1 drops slicestore.arena_reuse_ratio.
	ArenaBytesInterned   uint64 //detvet:statwire always 0; read by bench/metrics.go (frozen) until ROADMAP item 1 drops slicestore.arena_kb_interned.

	// DLRC internals (optimization studies, §4.5).
	SlicesCreated           uint64 // slices ended with a non-empty or empty mod list
	SlicesMerged            uint64 // slices continued by the slice-merging optimization
	SlicesPropagated        uint64 // slice propagations into a local thread
	SlicesFilteredLow       uint64 // scanned slice pointers the lowerlimit filter skipped (window entries only; see CollectScanned)
	SlicesFilteredPremerged uint64 // propagations skipped because a prelock pre-merge already applied them
	BytesPropagated         uint64 // modification bytes applied to local memories
	PrelockBytes            uint64 // modification bytes applied during prelock pre-merge
	LazyPendingApplied      uint64 // runs pended by lazy writes, each counted once, at its page's flush or its thread's exit
	LazyRunsElided          uint64 // pended bytes a later pend to the same page covered, never copied
	PageFaults              uint64 // simulated write-protection faults (pf monitor)
	PageProtects            uint64 // simulated per-page mprotect operations

	// Sub-page dirty tracking (extent-guided slice diffing).
	DirtyExtents     uint64 // dirty extents consumed by slice-end diffs
	DiffBytesScanned uint64 // snapshot bytes actually compared by slice-end diffs
	DiffBytesSkipped uint64 // snapshot bytes skipped thanks to dirty extents

	// Happens-before race detection (Options.RaceDetect). RaceRecords counts
	// slice access footprints handed to the detector; RaceReadBytes the
	// coalesced read-set bytes they carried. Both are deterministic.
	RaceRecords   uint64 // slice access records given to the race detector
	RaceReadBytes uint64 // harvested read-set bytes across those records

	// Kendo internals.
	TurnWaits uint64 // sync ops that had to wait for the deterministic turn

	// Monitor-contention observability. MonitorAcquires counts acquisitions
	// of the runtime's global monitor; DiffNanos and ApplyNanos are the
	// wall-clock time spent byte-diffing snapshotted pages and applying
	// propagated modification runs. Diffing runs before the turn and eager
	// application off the monitor, so these nanos measure work that does not
	// serialize unrelated threads. DiffNanos times each slice end's pre-cut,
	// including those slice merging discards, and not its commit. Wall-clock
	// times are host-dependent: they are observability counters, never part
	// of the deterministic output.
	MonitorAcquires uint64 // global-monitor lock acquisitions
	DiffNanos       uint64 // wall nanos spent in page diffing
	ApplyNanos      uint64 // wall nanos spent applying propagated runs

	// Coalesced write-plan propagation observability. CollectScanned counts
	// slice pointers examined by acquire-side collections: the entries of
	// each collection's window — from the reader's low-water mark on the
	// source list to its end (core/propagate.go) — not the list's length,
	// so it grows with what was appended since the reader last looked.
	// SliceListLen is the high-water length of any single source list a
	// collection walked, scanned or not. BytesCoalescedAway is
	// the modification bytes the last-writer-wins plan avoided writing
	// (input bytes minus unique destination bytes), for eager plans only
	// (LazyWrites off, the main thread before its first spawn, a barrier
	// leader): a lazy acquire builds none, and what a plan would have
	// coalesced away is in LazyRunsElided. PlanReuse reads 0: it counted
	// eager waiters that shared a release's plan, and no plan is shared now.
	CollectScanned     uint64 // slice pointers scanned during collection (window entries)
	SliceListLen       uint64 // high-water length of a collected-from slice list
	BytesCoalescedAway uint64 // duplicate bytes elided by eager write plans
	PlanReuse          uint64 //detvet:statwire always 0; read by bench/metrics.go (frozen) until ROADMAP item 1 drops core.plan_reuse.

	// Read 0: they counted events of the sharded commit monitor, which is one
	// mutex again (DESIGN.md §13), and nothing writes them. The fields stay
	// because bench/metrics.go, which is frozen, reads them; they go with
	// those two benchmark rows (ROADMAP item 1).
	CrossShardAcquires uint64 //detvet:statwire always 0; read by bench/metrics.go (frozen) until ROADMAP item 1 drops core.cross_shard_acquires.
	RendezvousOps      uint64 //detvet:statwire always 0; read by bench/metrics.go (frozen) until ROADMAP item 1 drops core.rendezvous_ops.
}

// Add accumulates other into s.
func (s *Stats) Add(other *Stats) {
	s.Locks += other.Locks
	s.Unlocks += other.Unlocks
	s.Waits += other.Waits
	s.Signals += other.Signals
	s.Forks += other.Forks
	s.Joins += other.Joins
	s.Barriers += other.Barriers
	s.AtomicsOps += other.AtomicsOps
	s.Loads += other.Loads
	s.Stores += other.Stores
	s.StoresWithCopy += other.StoresWithCopy
	s.SlicesCreated += other.SlicesCreated
	s.SlicesMerged += other.SlicesMerged
	s.SlicesPropagated += other.SlicesPropagated
	s.SlicesFilteredLow += other.SlicesFilteredLow
	s.SlicesFilteredPremerged += other.SlicesFilteredPremerged
	s.BytesPropagated += other.BytesPropagated
	s.PrelockBytes += other.PrelockBytes
	s.LazyPendingApplied += other.LazyPendingApplied
	s.LazyRunsElided += other.LazyRunsElided
	s.PageFaults += other.PageFaults
	s.PageProtects += other.PageProtects
	s.DirtyExtents += other.DirtyExtents
	s.DiffBytesScanned += other.DiffBytesScanned
	s.DiffBytesSkipped += other.DiffBytesSkipped
	s.RaceRecords += other.RaceRecords
	s.RaceReadBytes += other.RaceReadBytes
	s.TurnWaits += other.TurnWaits
	s.MonitorAcquires += other.MonitorAcquires
	s.DiffNanos += other.DiffNanos
	s.ApplyNanos += other.ApplyNanos
	s.CollectScanned += other.CollectScanned
	if other.SliceListLen > s.SliceListLen {
		s.SliceListLen = other.SliceListLen
	}
	s.BytesCoalescedAway += other.BytesCoalescedAway
	// High-water and pass counters take the max / sum as appropriate.
	if other.SharedMemBytes > s.SharedMemBytes {
		s.SharedMemBytes = other.SharedMemBytes
	}
	if other.RuntimeMemBytes > s.RuntimeMemBytes {
		s.RuntimeMemBytes = other.RuntimeMemBytes
	}
	if other.MetadataBytes > s.MetadataBytes {
		s.MetadataBytes = other.MetadataBytes
	}
	s.GCCount += other.GCCount
	s.GCEmptyPasses += other.GCEmptyPasses
}

// MemOps returns the total number of instrumented memory operations.
func (s *Stats) MemOps() uint64 { return s.Loads + s.Stores }

// Report is the result of one program execution.
type Report struct {
	// OutputHash is a 64-bit digest of the program's deterministic output:
	// the per-thread observation logs in thread-ID order followed by a
	// digest of the final shared memory image as seen by thread 0. Two runs
	// of a deterministic runtime on the same program and input must produce
	// equal OutputHash values.
	OutputHash uint64
	// Observations holds the raw observation log: for each thread, in
	// thread-ID order, the values it passed to Observe.
	Observations map[ThreadID][]uint64
	// Stats holds the merged profiling counters of all threads.
	Stats Stats
	// Elapsed is the wall-clock duration of Run.
	Elapsed time.Duration
	// VirtualTime is the modeled parallel execution time (makespan) in
	// virtual nanoseconds under the internal/vtime cost model. All
	// performance figures are ratios of virtual times, making the
	// reproduction host-independent and deterministic.
	VirtualTime uint64
	// Threads is the total number of threads created (including main).
	Threads int
	// Phases is the phase-level wall-clock timeline (nil unless the runtime
	// ran with phase tracing enabled). Strictly observational: wall-clock
	// spans never contribute to OutputHash, VirtualTime, or the deterministic
	// trace.
	Phases *trace.Report
	// Races is the happens-before data-race report (nil unless the runtime
	// ran with race detection enabled). Observational like Phases, but —
	// unlike wall-clock spans — itself deterministic: the same program
	// yields a byte-identical report on every run and every GOMAXPROCS.
	Races *racecheck.Report
}

// ObservationsDigest folds the complete observation log — every thread's
// values in thread-ID order, length-delimited — into one FNV-1a digest.
// Replica divergence checking compares this alongside the workload-level
// hashes: two replicas agree on it iff their full per-thread response logs
// agree value for value, not merely on a folded summary. Unlike OutputHash
// it excludes the final-memory digest, so it isolates *observed* divergence
// from state divergence.
func (r *Report) ObservationsDigest() uint64 {
	ids := make([]ThreadID, 0, len(r.Observations))
	for id := range r.Observations {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := uint64(0xcbf29ce484222325)
	fold := func(v uint64) {
		for shift := 0; shift < 64; shift += 8 {
			h ^= (v >> shift) & 0xff
			h *= 0x100000001b3
		}
	}
	for _, id := range ids {
		obs := r.Observations[id]
		fold(uint64(id))
		fold(uint64(len(obs)))
		for _, v := range obs {
			fold(v)
		}
	}
	return h
}
