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
	"fmt"
	"reflect"
	"sort"
	"strings"
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
//
// Every field is a uint64 whose `stat` tag declares, once, what the rest of
// the repository needs to know about it:
//
//	stat:"<layer>[,max][,host|,dead]"
//
// The layer is the runtime layer that counts it, named as the benchmark's
// per-layer metrics are (kendo, core, mem, alloc, slicestore), or racecheck.
// max marks a high-water mark or a configured size, which Add merges by
// keeping the larger value; every other field is a sum. host marks a value
// the host decides (who had to wait, when snapshots are charged), which
// Deterministic zeroes. No field holds wall time. dead marks a field that
// always reads 0 and is kept only because the frozen bench/metrics.go reads
// it (ROADMAP item 1).
// Add, Deterministic, Each and cmd/rfdet-run's report are all derived from
// the tags, so a new counter needs a tag and nothing else.
type Stats struct {
	// Synchronization operation counts (Table 1, "sync ops").
	Locks      uint64 `stat:"core"` // pthread_mutex_lock
	Unlocks    uint64 `stat:"core"` // pthread_mutex_unlock
	Waits      uint64 `stat:"core"` // pthread_cond_wait
	Signals    uint64 `stat:"core"` // pthread_cond_signal + broadcast
	Forks      uint64 `stat:"core"` // pthread_create
	Joins      uint64 `stat:"core"` // pthread_join
	Barriers   uint64 `stat:"core"` // barrier arrivals
	AtomicsOps uint64 `stat:"core"` // extension: low-level atomic operations

	// Memory operation counts (Table 1, "memory ops").
	Loads          uint64 `stat:"mem"` // instrumented load instructions
	Stores         uint64 `stat:"mem"` // instrumented store instructions
	StoresWithCopy uint64 `stat:"mem"` // stores that triggered a page snapshot ("store w/ copy")

	// Memory footprint in bytes (Table 1, "memory footprint"). The metadata
	// high-water depends on when off-turn snapshots are charged, and the
	// runtime footprint includes it.
	SharedMemBytes   uint64 `stat:"alloc,max"`           // high-water shared (non-stack) application memory
	RuntimeMemBytes  uint64 `stat:"mem,max,host"`        // total runtime footprint (N*shared + metadata for RFDet)
	MetadataBytes    uint64 `stat:"slicestore,max,host"` // high-water metadata-space usage
	MetadataCapacity uint64 `stat:"slicestore,max"`      // configured metadata-space size

	// Garbage collection (Table 1, "GC"). GCCount counts only passes that
	// reclaimed at least one slice; passes triggered (typically by snapshot
	// churn crossing the threshold) that found nothing below the frontier
	// are reported separately as GCEmptyPasses, so they cannot inflate the
	// Table 1 column.
	GCCount       uint64 `stat:"slicestore"` // reclaiming slice garbage-collection passes
	GCEmptyPasses uint64 `stat:"slicestore"` // GC passes that reclaimed nothing

	// Read 0: they counted the arena traffic of an epoch store that is
	// deleted (DESIGN.md §13). They go with the slicestore.arena_* benchmark
	// rows (ROADMAP item 1).
	ArenaChunksAllocated uint64 `stat:"slicestore,dead"`
	ArenaChunksReused    uint64 `stat:"slicestore,dead"`
	ArenaBytesInterned   uint64 `stat:"slicestore,dead"`

	// DLRC internals (optimization studies, §4.5).
	SlicesCreated           uint64 `stat:"core"` // slices ended with a non-empty or empty mod list
	SlicesMerged            uint64 `stat:"core"` // slices continued by the slice-merging optimization
	SlicesPropagated        uint64 `stat:"core"` // slice propagations into a local thread
	SlicesFilteredLow       uint64 `stat:"core"` // scanned slice pointers the lowerlimit filter skipped (window entries only; see CollectScanned)
	SlicesFilteredPremerged uint64 `stat:"core"` // propagations skipped because a prelock pre-merge already applied them
	BytesPropagated         uint64 `stat:"mem"`  // modification bytes applied to local memories
	PrelockBytes            uint64 `stat:"mem"`  // modification bytes applied during prelock pre-merge
	LazyPendingApplied      uint64 `stat:"mem"`  // runs pended by lazy writes, each counted once, at its page's flush or its thread's exit
	LazyRunsElided          uint64 `stat:"mem"`  // pended bytes a later pend to the same page covered, never copied
	PageFaults              uint64 `stat:"mem"`  // modelled write-protection faults: a slice's or phase's first store to a page (pf monitor, DThreads)
	PageProtects            uint64 `stat:"mem"`  // modelled per-page mprotect operations: resident pages at each slice start (pf) or fence (DThreads)

	// Sub-page dirty tracking (extent-guided slice diffing).
	DirtyExtents     uint64 `stat:"mem"` // dirty extents consumed by slice-end diffs
	DiffBytesScanned uint64 `stat:"mem"` // snapshot bytes actually compared by slice-end diffs
	DiffBytesSkipped uint64 `stat:"mem"` // snapshot bytes skipped thanks to dirty extents

	// Happens-before race detection (Options.RaceDetect). RaceRecords counts
	// slice access footprints handed to the detector; RaceReadBytes the
	// coalesced read-set bytes they carried. Both are deterministic.
	RaceRecords   uint64 `stat:"racecheck"` // slice access records given to the race detector
	RaceReadBytes uint64 `stat:"racecheck"` // harvested read-set bytes across those records

	// Kendo internals.
	TurnWaits uint64 `stat:"kendo,host"` // sync ops that had to wait for the deterministic turn

	// Monitor-contention observability: acquisitions of the runtime's global
	// monitor. Host time spent diffing, applying and pre-merging is not a
	// counter; the phase tracer (core.Options.PhaseTrace) records it as spans.
	MonitorAcquires uint64 `stat:"core"` // global-monitor lock acquisitions

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
	CollectScanned     uint64 `stat:"core"`      // slice pointers scanned during collection (window entries)
	SliceListLen       uint64 `stat:"core,max"`  // high-water length of a collected-from slice list
	BytesCoalescedAway uint64 `stat:"mem"`       // duplicate bytes elided by eager write plans
	PlanReuse          uint64 `stat:"core,dead"` // goes with core.plan_reuse

	// Read 0: they counted events of the sharded commit monitor, which is one
	// mutex again (DESIGN.md §13), and nothing writes them. They go with the
	// core.cross_shard_acquires and core.rendezvous_ops benchmark rows.
	CrossShardAcquires uint64 `stat:"core,dead"`
	RendezvousOps      uint64 `stat:"core,dead"`
}

// StatsField is one Stats field as its `stat` tag declares it.
type StatsField struct {
	Name  string
	Layer string
	Max   bool // a high-water mark or a size: Add keeps the larger value
	Host  bool // decided by the host, not the program: Deterministic zeroes it
	Dead  bool // always 0, kept for bench/metrics.go
}

// statsFields is the field table, in declaration order, read from the tags
// once. A field that is not a uint64, or whose tag does not parse, panics
// when the package initializes, so every test in the module fails on it.
var statsFields = func() []StatsField {
	t := reflect.TypeOf(Stats{})
	fields := make([]StatsField, t.NumField())
	for i := range fields {
		sf := t.Field(i)
		tag, ok := sf.Tag.Lookup("stat")
		opts := strings.Split(tag, ",")
		f := StatsField{Name: sf.Name, Layer: opts[0]}
		for _, opt := range opts[1:] {
			switch opt {
			case "max":
				f.Max = true
			case "host":
				f.Host = true
			case "dead":
				f.Dead = true
			default:
				ok = false
			}
		}
		if !ok || f.Layer == "" || sf.Type.Kind() != reflect.Uint64 || f.Dead && (f.Max || f.Host) {
			panic(fmt.Sprintf("api: Stats.%s has a bad stat tag %q", sf.Name, tag))
		}
		fields[i] = f
	}
	return fields
}()

// Add accumulates other into s: a max field keeps the larger value, every
// other field is summed.
func (s *Stats) Add(other *Stats) {
	dst, src := reflect.ValueOf(s).Elem(), reflect.ValueOf(other).Elem()
	for i, f := range statsFields {
		switch d, v := dst.Field(i), src.Field(i).Uint(); {
		case !f.Max:
			d.SetUint(d.Uint() + v)
		case v > d.Uint():
			d.SetUint(v)
		}
	}
}

// Deterministic returns a copy of s with the host fields zeroed: what two
// executions of one program on one deterministic runtime must agree on.
func (s *Stats) Deterministic() Stats {
	d := *s
	v := reflect.ValueOf(&d).Elem()
	for i, f := range statsFields {
		if f.Host {
			v.Field(i).SetUint(0)
		}
	}
	return d
}

// Each calls fn with every field and its value, in declaration order.
func (s *Stats) Each(fn func(f StatsField, v uint64)) {
	v := reflect.ValueOf(s).Elem()
	for i, f := range statsFields {
		fn(f, v.Field(i).Uint())
	}
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
	d := NewDigest()
	for _, id := range ids {
		d = d.Log(id, r.Observations[id])
	}
	return uint64(d)
}

// Digest is a running 64-bit FNV-1a hash over little-endian words, the one
// fold behind ObservationsDigest and every runtime's Report.OutputHash.
// FNV-1a's state is its value, so OutputHash is the observations digest
// continued over the final memory hash: Word(memHash) after every thread's
// Log, in thread-ID order. A value type, so folding allocates nothing.
type Digest uint64

// NewDigest returns an empty digest, FNV-1a's offset basis.
func NewDigest() Digest { return 0xcbf29ce484222325 }

// Word folds v's 8 little-endian bytes into d.
func (d Digest) Word(v uint64) Digest {
	for shift := 0; shift < 64; shift += 8 {
		d ^= Digest(v>>shift) & 0xff
		d *= 0x100000001b3
	}
	return d
}

// Log folds one thread's observation log: its id, its length, its values.
func (d Digest) Log(id ThreadID, obs []uint64) Digest {
	d = d.Word(uint64(id)).Word(uint64(len(obs)))
	for _, v := range obs {
		d = d.Word(v)
	}
	return d
}
