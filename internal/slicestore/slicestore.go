// Package slicestore implements slices and the shared metadata space that
// holds them (paper §4.2, §4.5).
//
// A slice is the paper's triple <tid, modifications, timestamp>: the
// byte-granularity memory updates of one synchronization-free stretch of one
// thread's execution, stamped with a vector clock. Slices are immutable once
// committed; threads exchange them by pointer during memory modification
// propagation (§4.3), so the store also plays the role of the paper's
// metadata space: it accounts for the memory slices and page snapshots
// consume and triggers garbage collection when usage crosses a threshold.
//
// Two implementations of the Store interface exist: MapStore, the seed's
// mutex-guarded map with a frontier sweep, and EpochStore (epoch.go), a
// log-structured store that appends commits into per-stripe arena-backed
// segments and reclaims whole segments against the vclock frontier. The
// runtime constructs the MapStore only; the EpochStore is kept for the
// benchmark's slice-store driver (bench/layers.go) until that is retargeted
// (ROADMAP item 1).
package slicestore

import (
	"sync"
	"sync/atomic"

	"rfdet/internal/mem"
	"rfdet/internal/vclock"
)

// Slice is one synchronization-free execution slice's modifications.
type Slice struct {
	// ID is a store-unique identifier (diagnostics only; determinism never
	// depends on it).
	ID uint64
	// Tid is the thread that executed the slice.
	Tid int32
	// Time is the slice's vector-clock timestamp: the owning thread's clock
	// when the slice ended. Slice A happens-before slice B iff
	// A.Time < B.Time (§4.2).
	Time vclock.VC
	// Mods is the ordered modification list, as byte runs. In the MapStore
	// the payloads stay the committer's own block, ordinary Go memory, so a
	// reader may hold a *Slice and read its bytes after the slice is
	// collected. An EpochStore commit re-points them into segment arena
	// memory, which is recycled: there, reading payload bytes requires the
	// slice to be uncollected or the reader to hold a Pin.
	//
	// Neither Mods nor its payload is written or recycled after Commit: lazy
	// writes keep sub-slices of Mods in pending records (mem.PendingPage).
	Mods []mem.Run
	// Bytes caches mem.RunBytes(Mods).
	Bytes uint64
}

// Cost returns the metadata-space bytes charged for the slice: the run
// payloads plus a fixed per-run and per-slice overhead approximating the
// paper's modification-list representation.
func (s *Slice) Cost() uint64 {
	return 64 + uint64(len(s.Mods))*24 + s.Bytes
}

const (
	// DefaultCapacity is the paper's metadata-space size (256 MB, §5.4).
	DefaultCapacity = 256 << 20
	// DefaultGCThresholdPct triggers GC at 90% usage (§5.4).
	DefaultGCThresholdPct = 90
)

// Metrics reports implementation-specific store internals for observability
// (Table 1 companions). The MapStore returns zeros.
type Metrics struct {
	// SegmentsLive is the current number of epoch segments holding slices.
	SegmentsLive uint64
	// SegmentsDropped counts segments reclaimed whole by Collect.
	SegmentsDropped uint64
	// ArenaChunksAllocated counts arena chunks ever created.
	ArenaChunksAllocated uint64
	// ArenaChunksReused counts arena chunk gets served by recycling.
	ArenaChunksReused uint64
	// ArenaBytesInterned is the total payload bytes copied into arenas.
	ArenaBytesInterned uint64
}

// Store is the metadata space seen by the runtime: slice registration with a
// GC-trigger verdict, snapshot accounting, frontier-driven collection, and
// the pin protocol that keeps reclaimed payload memory alive while a reader
// still holds collected slices.
type Store interface {
	// AllocSnapshot charges one page snapshot to the metadata space (taken
	// on the first write to a page within a slice, Figure 4). The stripe
	// hint attributes the charge to the calling thread's accounting cell
	// in the epoch store; the map store ignores it.
	AllocSnapshot(stripe int)
	// FreeSnapshot releases one page snapshot's accounting: the paper frees
	// snapshot memory immediately after the byte-granularity modification
	// list is built by page diffing (§5.4).
	FreeSnapshot(stripe int)
	// Commit registers a finished slice and reports whether usage crossed
	// the GC threshold, in which case the caller should garbage-collect.
	Commit(s *Slice) (needGC bool)
	// Collect reclaims slices whose timestamps are ≤ frontier (§4.5) and
	// returns the number reclaimed.
	Collect(frontier vclock.VC) int
	// Pin marks the current reclamation epoch as in use. Until the returned
	// pin is released, payload memory of slices collected after the pin was
	// taken is quarantined rather than recycled, so the pinning reader can
	// keep dereferencing the slices it already holds. The zero Pin is a
	// released no-op; the MapStore (where reclaimed payloads are simply
	// garbage-collected by Go) returns it directly.
	Pin() Pin

	Capacity() uint64
	GCThreshold() uint64
	Used() uint64
	HighWater() uint64
	GCCount() uint64
	// EmptyGCCount counts Collect passes that reclaimed nothing. They are
	// reported separately from GCCount so snapshot-churn threshold
	// crossings do not inflate the Table 1 "GC" column.
	EmptyGCCount() uint64
	Live() int
	TotalCreated() uint64
	// Metrics returns implementation-specific counters (zeros for MapStore).
	Metrics() Metrics
}

// Pin is a handle on a reclamation epoch; see Store.Pin. The zero value is
// released and Release on it is a no-op, so pins can be passed by value
// unconditionally.
type Pin struct {
	es *EpochStore
	id uint64
}

// Release ends the pin. Idempotence is not required of callers: a reader
// releases each pin exactly once, after the deferred read it protects.
func (p Pin) Release() {
	if p.es != nil {
		p.es.unpin(p.id)
	}
}

// MapStore is the seed metadata space: a single mutex-guarded map of live
// slices with a full-sweep Collect.
//
// All usage accounting (used, highWater) and the scalar counters are plain
// atomics, so snapshot bookkeeping — AllocSnapshot on the store path of a
// running slice, FreeSnapshot on the off-monitor diff path — never contends
// with commits or collections. The mutex guards only the live-slice map.
//
// The budget (used) is a single exact atomic: GC-trigger decisions must see
// the exact linearized usage at each charge.
type MapStore struct {
	//detvet:lockorder 30
	mu sync.Mutex //detvet:nativesync guards only the live-slice map; charging is lock-free, because snapshot accounting runs off the monitor
	//detvet:guardedby mu
	slices map[uint64]*Slice
	//detvet:notguarded fixed at construction, immutable thereafter
	capacity    uint64
	gcThreshold uint64 //detvet:notguarded fixed at construction, immutable thereafter

	nextID       atomic.Uint64
	used         atomic.Int64 // slices + snapshots, bytes (the exact budget)
	highWater    atomic.Int64
	gcCount      atomic.Uint64
	emptyGC      atomic.Uint64
	totalCreated atomic.Uint64
}

// NewStore returns a map-backed metadata space with the given capacity (0
// means DefaultCapacity) and GC threshold percentage (0 means 90).
func NewStore(capacity uint64, thresholdPct int) *MapStore {
	capacity, threshold := capacityAndThreshold(capacity, thresholdPct)
	return &MapStore{
		slices:      make(map[uint64]*Slice),
		capacity:    capacity,
		gcThreshold: threshold,
	}
}

// capacityAndThreshold applies the shared capacity/threshold defaulting.
func capacityAndThreshold(capacity uint64, thresholdPct int) (uint64, uint64) {
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	if thresholdPct <= 0 || thresholdPct > 100 {
		thresholdPct = DefaultGCThresholdPct
	}
	// Multiply before dividing: capacity/100*pct truncates the quotient
	// first, which for capacities that are not multiples of 100 rounds
	// the threshold down by up to 99*pct bytes — and to zero for
	// capacities under 100, making every commit trigger a GC pass.
	return capacity, capacity * uint64(thresholdPct) / 100
}

// Capacity returns the configured metadata-space size.
func (st *MapStore) Capacity() uint64 { return st.capacity }

// GCThreshold returns the usage level (bytes) at which Commit requests a
// garbage-collection pass.
func (st *MapStore) GCThreshold() uint64 { return st.gcThreshold }

// AllocSnapshot implements Store.
func (st *MapStore) AllocSnapshot(int) { st.charge(mem.PageSize) }

// FreeSnapshot implements Store.
func (st *MapStore) FreeSnapshot(int) { st.charge(-mem.PageSize) }

// charge adjusts usage by delta and returns the post-add budget value — the
// exact usage at the instant this charge linearized on the used atomic.
// Callers deciding anything from the charge (Commit's GC trigger) must use
// the returned value, never a re-load: between Add and a later Load, a
// FreeSnapshot on the off-monitor diff path can dip usage back under a
// threshold the Add crossed.
func (st *MapStore) charge(delta int64) int64 {
	used := st.used.Add(delta)
	for {
		hw := st.highWater.Load()
		if used <= hw || st.highWater.CompareAndSwap(hw, used) {
			return used
		}
	}
}

// Commit registers a finished slice and reports whether usage has crossed
// the GC threshold, in which case the caller should garbage-collect. The
// decision is made from the commit's own post-charge usage, so a threshold
// crossing is reported by exactly the charge that crossed it regardless of
// how concurrent snapshot frees interleave.
//
// The charge lands before the slice is published to the map: a Collect
// racing this commit (turn-elided commits run off-turn) either misses the
// slice entirely or sees it with its cost already in the budget, so the
// collection's credit always cancels a charge that happened. Publishing
// first would let a racing Collect delete-and-credit the slice before its
// own charge landed, permanently inflating the budget by one slice cost.
func (st *MapStore) Commit(s *Slice) (needGC bool) {
	s.ID = st.nextID.Add(1)
	st.totalCreated.Add(1)
	needGC = uint64(st.charge(int64(s.Cost()))) >= st.gcThreshold
	st.mu.Lock()
	st.slices[s.ID] = s
	st.mu.Unlock()
	return needGC
}

// Collect removes every slice whose timestamp is ≤ frontier: such slices
// have been merged into the local memory of every thread (§4.5, "Garbage
// Collection") and can never again pass a propagation filter. It returns the
// number of slices reclaimed.
//
// Victims are credited back to the budget before the mutex is released —
// atomically with publishing the collection. Crediting after the unlock
// opens a window in which the map no longer holds the victims but the
// budget still charges for them, so a concurrent Commit or Used reading
// observes inflated usage and can spuriously report needGC.
func (st *MapStore) Collect(frontier vclock.VC) int {
	st.mu.Lock()
	var victims []*Slice
	//detvet:orderfree victims is only summed over (Cost) and counted; membership, not order, matters. See TestCollectOrderFree.
	for id, s := range st.slices {
		if s.Time.Leq(frontier) {
			victims = append(victims, s)
			delete(st.slices, id)
		}
	}
	for _, s := range victims {
		st.charge(-int64(s.Cost()))
	}
	st.mu.Unlock()
	if len(victims) > 0 {
		st.gcCount.Add(1)
	} else {
		st.emptyGC.Add(1)
	}
	return len(victims)
}

// Pin implements Store. Reclaimed map-store slices are ordinary Go garbage,
// so readers never need protection; the returned pin is the released zero
// value.
func (st *MapStore) Pin() Pin { return Pin{} }

// Used returns the current metadata-space usage in bytes.
func (st *MapStore) Used() uint64 { return uint64(st.used.Load()) }

// HighWater returns the metadata-space usage high-water mark (the
// MetadataSpaceMemory term in §5.4's footprint equation).
func (st *MapStore) HighWater() uint64 { return uint64(st.highWater.Load()) }

// GCCount returns the number of Collect passes that reclaimed at least one
// slice (Table 1, "GC"). Passes that found nothing below the frontier are
// counted by EmptyGCCount instead.
func (st *MapStore) GCCount() uint64 { return st.gcCount.Load() }

// EmptyGCCount returns the number of Collect passes that reclaimed nothing.
func (st *MapStore) EmptyGCCount() uint64 { return st.emptyGC.Load() }

// Live returns the number of live slices.
func (st *MapStore) Live() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.slices)
}

// TotalCreated returns the number of slices ever committed.
func (st *MapStore) TotalCreated() uint64 { return st.totalCreated.Load() }

// Metrics implements Store; the map store has no segments or arenas.
func (st *MapStore) Metrics() Metrics { return Metrics{} }

// trimShrinkFloor is the retained-length cap below which TrimList reallocates
// instead of reslicing, when the backing array is at least 4x larger.
const trimShrinkFloor = 64

// TrimList filters a slice-pointer list in place, dropping slices with
// timestamps ≤ frontier, and returns the retained list. Threads call this
// during GC so their slice-pointer lists (§4.3) do not retain collected
// slices.
//
// When a trim retains only a small fraction of a large backing array, the
// survivors are copied into a right-sized allocation and the old array is
// released — the same retention class as a waitq kept at its high-water
// capacity forever: a thread that once accumulated a huge pointer list
// between GC passes would otherwise pin that array for the rest of the run.
func TrimList(list []*Slice, frontier vclock.VC) []*Slice {
	out := list[:0]
	for _, s := range list {
		if !s.Time.Leq(frontier) {
			out = append(out, s)
		}
	}
	// Zero the tail so collected slices become unreachable.
	for i := len(out); i < len(list); i++ {
		list[i] = nil
	}
	if cap(out) > trimShrinkFloor && len(out) < cap(out)/4 {
		shrunk := make([]*Slice, len(out))
		copy(shrunk, out)
		return shrunk
	}
	return out
}
