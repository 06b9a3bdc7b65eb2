// Package slicestore implements slices and the shared metadata space that
// holds them (paper §4.2, §4.5).
//
// A slice is the paper's triple <tid, modifications, timestamp>: the
// byte-granularity memory updates of one synchronization-free stretch of one
// thread's execution, stamped with a vector clock. Slices are immutable once
// committed; threads exchange them by pointer during memory modification
// propagation (§4.3), so the store also plays the role of the paper's
// metadata space: it accounts for the memory slices and page snapshots
// consume and triggers garbage collection when the committed slices cross a
// threshold. The metadata space is Store, a mutex-guarded list of live
// slices in commit order with a frontier sweep.
package slicestore

import (
	"sync"
	"sync/atomic"

	"rfdet/internal/mem"
	"rfdet/internal/vclock"
)

// Slice is one synchronization-free execution slice's modifications.
type Slice struct {
	// Tid is the thread that executed the slice.
	Tid int32
	// Time is the slice's vector-clock timestamp: the owning thread's clock
	// when the slice ended. Slice A happens-before slice B iff
	// A.Time < B.Time (§4.2).
	Time vclock.VC
	// Mods is the ordered modification list, as byte runs. The payloads stay
	// the committer's own block, ordinary Go memory, so a reader may hold a
	// *Slice and read its bytes after the slice is collected.
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

// Store is the metadata space: a single mutex-guarded, append-only list of
// live slices in commit order, with a full-sweep Collect that filters it in
// place.
//
// Usage accounting (used, highWater) and the scalar counters are plain
// atomics, so AllocSnapshot, which the store path of a running slice calls
// off the turn, never contends with commits or collections. The GC trigger
// reads none of it: it compares sliceBytes, the committed slices' cost, which
// only Commit and Collect change, and the runtime calls both under the
// deterministic turn. A trigger that counted snapshots would fire at
// host-chosen moments, and a pass cannot free a snapshot anyway.
type Store struct {
	//detvet:lockorder 30
	mu sync.Mutex //detvet:nativesync guards the live-slice list and its cost; snapshot charging is lock-free, because it runs off the monitor
	//detvet:guardedby mu
	slices []*Slice
	//detvet:guardedby mu
	sliceBytes uint64
	//detvet:notguarded fixed at construction, immutable thereafter
	capacity    uint64
	gcThreshold uint64 //detvet:notguarded fixed at construction, immutable thereafter

	used      atomic.Int64 // slices + snapshots, bytes
	highWater atomic.Int64
	gcCount   atomic.Uint64
	emptyGC   atomic.Uint64
}

// NewStore returns a metadata space with the given capacity (0 means
// DefaultCapacity) that requests GC at DefaultGCThresholdPct of it.
func NewStore(capacity uint64) *Store {
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		capacity: capacity,
		// Multiply before dividing: capacity/100*90 truncates the quotient
		// first, which for capacities that are not multiples of 100 rounds
		// the threshold down by up to 89 bytes — and to zero for capacities
		// under 100, making every commit trigger a GC pass.
		gcThreshold: capacity * DefaultGCThresholdPct / 100,
	}
}

// NewEpochStore returns NewStore(capacity) and ignores thresholdPct and
// stripes.
// It keeps the name bench/layers.go calls for its slicestore.* rows while
// bench/ is frozen; the benchmark's next revision (ROADMAP item 1) calls
// NewStore there and deletes this constructor.
func NewEpochStore(capacity uint64, thresholdPct, stripes int) *Store {
	return NewStore(capacity)
}

// Capacity returns the configured metadata-space size.
func (st *Store) Capacity() uint64 { return st.capacity }

// AllocSnapshot charges one page snapshot to the metadata space (taken on
// the first write to a page within a slice, Figure 4).
func (st *Store) AllocSnapshot() { st.charge(mem.PageSize) }

// FreeSnapshot releases one page snapshot's accounting: the paper frees
// snapshot memory immediately after the byte-granularity modification list
// is built by page diffing (§5.4).
func (st *Store) FreeSnapshot() { st.charge(-mem.PageSize) }

// charge adjusts usage by delta and raises the high-water mark to it.
func (st *Store) charge(delta int64) {
	used := st.used.Add(delta)
	for {
		hw := st.highWater.Load()
		if used <= hw || st.highWater.CompareAndSwap(hw, used) {
			return
		}
	}
}

// Commit registers a finished slice and reports whether the committed
// slices' cost has reached the GC threshold, in which case the caller should
// garbage-collect.
//
// The charge lands before the slice is published to the list: a Collect
// racing this commit either misses the slice entirely or sees it with its
// cost already in the budget, so the collection's credit always cancels a
// charge that happened. Publishing first would let a racing Collect
// delete-and-credit the slice before its own charge landed, permanently
// inflating the budget by one slice cost.
func (st *Store) Commit(s *Slice) (needGC bool) {
	st.charge(int64(s.Cost()))
	st.mu.Lock()
	st.slices = append(st.slices, s)
	st.sliceBytes += s.Cost()
	needGC = st.sliceBytes >= st.gcThreshold
	st.mu.Unlock()
	return needGC
}

// Collect removes every slice whose timestamp is ≤ frontier: such slices
// have been merged into the local memory of every thread (§4.5, "Garbage
// Collection") and can never again pass a propagation filter. It returns the
// number of slices reclaimed.
//
// The list is filtered in place, survivors keeping their commit order, and
// its tail is cleared so the victims become unreachable. Victims are credited
// back to the budget before the mutex is released — atomically with
// publishing the collection. Crediting after the unlock opens a window in
// which the list no longer holds the victims but the budget still charges
// for them, so a concurrent Used reading observes inflated usage.
func (st *Store) Collect(frontier vclock.VC) int {
	st.mu.Lock()
	live := st.slices[:0]
	var freed uint64
	for _, s := range st.slices {
		if s.Time.Leq(frontier) {
			freed += s.Cost()
		} else {
			live = append(live, s)
		}
	}
	victims := len(st.slices) - len(live)
	clear(st.slices[len(live):])
	st.slices = live
	st.sliceBytes -= freed
	st.charge(-int64(freed))
	st.mu.Unlock()
	if victims > 0 {
		st.gcCount.Add(1)
	} else {
		st.emptyGC.Add(1)
	}
	return victims
}

// HighWater returns the metadata-space usage high-water mark (the
// MetadataSpaceMemory term in §5.4's footprint equation).
func (st *Store) HighWater() uint64 { return uint64(st.highWater.Load()) }

// GCCount returns the number of Collect passes that reclaimed at least one
// slice (Table 1, "GC"). Passes that found nothing below the frontier are
// counted by EmptyGCCount instead.
func (st *Store) GCCount() uint64 { return st.gcCount.Load() }

// EmptyGCCount returns the number of Collect passes that reclaimed nothing.
// They are reported apart from GCCount so passes a threshold crossing
// triggered before the frontier moved do not inflate the Table 1 "GC"
// column.
func (st *Store) EmptyGCCount() uint64 { return st.emptyGC.Load() }

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
