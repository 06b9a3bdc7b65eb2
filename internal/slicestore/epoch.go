// EpochStore: the log-structured, epoch-based implementation of the metadata
// space (ROADMAP item 2; the snapshot-pinned MVCC + arena idiom).
//
// Commits append immutable slices into per-stripe segments; each segment
// owns an arena (internal/alloc) into which the slices' run payloads are
// interned, so steady-state propagation recycles a fixed set of arena chunks
// instead of allocating fresh payload buffers for every slice. Collect's
// fast path drops whole segments whose max timestamp is ≤ the vclock
// frontier, crediting their slices back to the budget atomically with
// unpublishing them; segments straddling the frontier have their covered
// members trimmed out so budget reclamation tracks the map store's sweep
// exactly even when the frontier lags one young slice.
//
// Reclaiming payload memory introduces the one hazard the map store never
// had: a reader that collected slice pointers under its turn and applies
// them after releasing the monitor could dereference payload bytes whose
// segment was dropped in between (the acquirer's clock has already joined
// the slices' times, so the GC frontier can cover them while the apply is
// still in flight). The pin protocol closes this: Pin, taken while the
// reader still holds the turn, records the current reclamation epoch;
// arenas of segments dropped at a later epoch are quarantined in a limbo
// list and only recycled once every pin predating the drop has been
// released.
package slicestore

import (
	"sync"
	"sync/atomic"

	"rfdet/internal/alloc"
	"rfdet/internal/mem"
	"rfdet/internal/stats"
	"rfdet/internal/vclock"
)

const (
	// segMaxSlices seals a segment after this many slices, bounding how
	// much retention a single young slice can cause (a segment is reclaimed
	// only whole, so its oldest members wait for its youngest).
	segMaxSlices = 128
	// segMaxCost seals a segment when its charged bytes reach this bound.
	segMaxCost = 256 << 10
)

// segment is one append-only run of committed slices sharing an arena.
// Commit appends to the stripe's open segment; Collect may trim covered
// members out of any segment. Both happen under the stripe mutex, and the
// member list is replaced (not mutated in place) on trim, so a snapshot of
// the list taken under the mutex may be iterated without locks.
type segment struct {
	slices  []*Slice
	maxTime vclock.VC // join of member timestamps
	cost    uint64    // sum of member Cost()s
	arena   *alloc.Arena
}

// epochStripe is one commit lane: threads map to stripes by id.
type epochStripe struct {
	//detvet:lockorder 30
	mu sync.Mutex //detvet:nativesync commit lane for host-side segment appends; turn order already serializes conflicting commits, the mutex only protects the lane against off-turn elided commits and Collect
	//detvet:guardedby mu
	open *segment
	//detvet:guardedby mu
	sealed []*segment
	_      [32]byte // keep neighboring stripes' mutexes off one cache line
}

// EpochStore implements Store as a log of arena-backed epoch segments.
//
// The budget discipline is identical to MapStore's and for the same reason:
// usage is one exact atomic (used) adjusted by charge, with GC-trigger
// decisions made from the charge's own post-add value, plus a striped
// attribution that sums to it. Segments change only *what* is reclaimed
// (whole segments instead of single slices), never how usage is counted.
type EpochStore struct {
	capacity    uint64
	gcThreshold uint64
	stripes     []epochStripe
	pool        *alloc.ChunkPool

	nextID       atomic.Uint64
	used         atomic.Int64 // slices + snapshots, bytes (the exact budget)
	perStripe    *stats.Striped
	highWater    atomic.Int64
	gcCount      atomic.Uint64
	emptyGC      atomic.Uint64
	totalCreated atomic.Uint64
	live         atomic.Int64

	segsLive    atomic.Int64
	segsDropped atomic.Uint64
	interned    atomic.Uint64

	// Reclamation epoch state. epoch advances on every Collect pass; pins
	// hold the epoch current at Pin time; limbo quarantines dropped arenas
	// until no pin predates their drop epoch. All three share pinMu.
	//detvet:lockorder 40
	pinMu sync.Mutex //detvet:nativesync guards the reclamation-epoch registry (pins + limbo); pure host-side memory recycling, invisible to deterministic state
	//detvet:guardedby pinMu
	epoch uint64
	//detvet:guardedby pinMu
	pinSeq uint64
	//detvet:guardedby pinMu
	pins  []pinRec
	limbo []limboSeg //detvet:guardedby pinMu
}

// pinRec is one live pin. A slice, not a map: releases are by linear scan
// (there are at most a handful of live pins) and iteration order never
// matters — only the minimum epoch is read.
type pinRec struct{ id, epoch uint64 }

// limboSeg is a dropped segment's arena awaiting pin quiescence.
type limboSeg struct {
	epoch uint64 // the Collect pass that dropped it
	arena *alloc.Arena
}

// NewEpochStore returns an epoch-based metadata space with the given
// capacity (0 means DefaultCapacity), GC threshold percentage (0 means 90)
// and commit-stripe count (also the usage-attribution stripe count).
func NewEpochStore(capacity uint64, thresholdPct, stripes int) *EpochStore {
	if stripes < 1 {
		stripes = 1
	}
	capacity, threshold := capacityAndThreshold(capacity, thresholdPct)
	return &EpochStore{
		capacity:    capacity,
		gcThreshold: threshold,
		stripes:     make([]epochStripe, stripes),
		pool:        alloc.NewChunkPool(),
		perStripe:   stats.NewStriped(stripes),
	}
}

// Capacity returns the configured metadata-space size.
func (es *EpochStore) Capacity() uint64 { return es.capacity }

// GCThreshold returns the usage level (bytes) at which Commit requests a
// garbage-collection pass.
func (es *EpochStore) GCThreshold() uint64 { return es.gcThreshold }

// AllocSnapshot implements Store.
func (es *EpochStore) AllocSnapshot(stripe int) { es.charge(stripe, mem.PageSize) }

// FreeSnapshot implements Store.
func (es *EpochStore) FreeSnapshot(stripe int) { es.charge(stripe, -mem.PageSize) }

// charge mirrors MapStore.charge: exact budget atomic, striped attribution,
// post-add value returned for trigger decisions.
func (es *EpochStore) charge(stripe int, delta int64) int64 {
	es.perStripe.Add(stripe%len(es.stripes), delta)
	used := es.used.Add(delta)
	for {
		hw := es.highWater.Load()
		if used <= hw || es.highWater.CompareAndSwap(hw, used) {
			return used
		}
	}
}

// stripeOf maps a thread id to its commit lane.
func (es *EpochStore) stripeOf(tid int32) *epochStripe {
	return &es.stripes[int(uint32(tid))%len(es.stripes)]
}

// Commit appends the slice to its stripe's open segment, interning the run
// payloads into the segment arena — s.Mods is repointed in place, so after
// Commit the caller's payload buffers are no longer referenced by the store
// and may be reused. As in MapStore, the charge lands before the slice is
// published, so a racing Collect can never credit a cost that was not yet
// charged.
func (es *EpochStore) Commit(s *Slice) (needGC bool) {
	s.ID = es.nextID.Add(1)
	es.totalCreated.Add(1)
	needGC = uint64(es.charge(int(s.Tid), int64(s.Cost()))) >= es.gcThreshold
	sp := es.stripeOf(s.Tid)
	sp.mu.Lock()
	seg := sp.open
	if seg == nil || len(seg.slices) >= segMaxSlices || seg.cost >= segMaxCost {
		if seg != nil {
			sp.sealed = append(sp.sealed, seg)
		}
		seg = &segment{arena: alloc.NewArena(es.pool)}
		sp.open = seg
		es.segsLive.Add(1)
	}
	for i := range s.Mods {
		d := seg.arena.Alloc(len(s.Mods[i].Data))
		copy(d, s.Mods[i].Data)
		s.Mods[i].Data = d
	}
	es.interned.Add(s.Bytes)
	seg.slices = append(seg.slices, s)
	seg.maxTime = seg.maxTime.Join(s.Time)
	seg.cost += s.Cost()
	sp.mu.Unlock()
	es.live.Add(1)
	return needGC
}

// Collect advances the reclamation frontier. The fast path is the whole-
// segment drop: a sealed segment whose max timestamp is ≤ frontier is
// unpublished in one step, its slices credited back to the budget under the
// stripe mutex, its arena sent to limbo for recycling once no pin predates
// this pass. An open segment that is already fully covered is sealed first
// so it drops in the same pass.
//
// Segments that straddle the frontier — some members covered, the join not —
// are trimmed instead: covered slices are credited and removed exactly as
// the map store's sweep would, so the budget reclaims byte-for-byte what
// MapStore reclaims under the same frontier, and a lagging frontier can
// never strand an arbitrarily large covered prefix behind one young slice.
// Only the trimmed slices' arena bytes stay resident, bounded per stripe by
// the segment seal limits, until the whole segment's join is covered.
func (es *EpochStore) Collect(frontier vclock.VC) int {
	n := 0
	var dropped []*segment
	for i := range es.stripes {
		sp := &es.stripes[i]
		sp.mu.Lock()
		if sp.open != nil && sp.open.maxTime.Leq(frontier) &&
			(len(sp.open.slices) > 0 || sp.open.arena.Bytes() > 0) {
			sp.sealed = append(sp.sealed, sp.open)
			sp.open = nil
		}
		keep := sp.sealed[:0]
		for _, seg := range sp.sealed {
			if seg.maxTime.Leq(frontier) {
				for _, s := range seg.slices {
					es.charge(int(s.Tid), -int64(s.Cost()))
				}
				n += len(seg.slices)
				dropped = append(dropped, seg)
			} else {
				n += es.trimSegmentLocked(seg, frontier)
				keep = append(keep, seg)
			}
		}
		for j := len(keep); j < len(sp.sealed); j++ {
			sp.sealed[j] = nil
		}
		sp.sealed = keep
		if sp.open != nil {
			n += es.trimSegmentLocked(sp.open, frontier)
		}
		sp.mu.Unlock()
	}
	if n > 0 {
		es.gcCount.Add(1)
		es.live.Add(-int64(n))
	} else {
		es.emptyGC.Add(1)
	}
	es.retire(dropped)
	return n
}

// trimSegmentLocked reclaims the covered slices of a straddling segment:
// each is credited back to the budget and removed from the member list, and
// maxTime is recomputed from the survivors so the segment drops as early as
// possible. The member list is replaced, never mutated in place — a
// ForEachSealed iterator that snapshotted the old list keeps a consistent
// view, and the trimmed slices' payload bytes stay valid because the
// segment's arena is untouched until the segment itself drops. Returns the
// number of slices reclaimed. Caller holds the stripe mutex.
func (es *EpochStore) trimSegmentLocked(seg *segment, frontier vclock.VC) int {
	trimmed := 0
	for _, s := range seg.slices {
		if s.Time.Leq(frontier) {
			trimmed++
		}
	}
	if trimmed == 0 {
		return 0
	}
	survivors := make([]*Slice, 0, len(seg.slices)-trimmed)
	var maxTime vclock.VC
	for _, s := range seg.slices {
		if s.Time.Leq(frontier) {
			es.charge(int(s.Tid), -int64(s.Cost()))
			seg.cost -= s.Cost()
		} else {
			survivors = append(survivors, s)
			maxTime = maxTime.Join(s.Time)
		}
	}
	seg.slices = survivors
	seg.maxTime = maxTime
	return trimmed
}

// retire advances the epoch, quarantines the dropped segments' arenas, and
// recycles whatever limbo the live pins no longer protect.
func (es *EpochStore) retire(dropped []*segment) {
	es.pinMu.Lock()
	es.epoch++
	for _, seg := range dropped {
		es.segsLive.Add(-1)
		es.segsDropped.Add(1)
		es.limbo = append(es.limbo, limboSeg{epoch: es.epoch, arena: seg.arena})
	}
	es.drainLimboLocked()
	es.pinMu.Unlock()
}

// drainLimboLocked releases every quarantined arena that no live pin can
// still read: an arena dropped at epoch D is protected only by pins taken
// at an epoch < D.
//
//detvet:holds pinMu
func (es *EpochStore) drainLimboLocked() {
	minPin := ^uint64(0)
	for _, p := range es.pins {
		if p.epoch < minPin {
			minPin = p.epoch
		}
	}
	keep := es.limbo[:0]
	for _, l := range es.limbo {
		if l.epoch > minPin {
			keep = append(keep, l)
		} else {
			l.arena.Release()
		}
	}
	for i := len(keep); i < len(es.limbo); i++ {
		es.limbo[i] = limboSeg{}
	}
	es.limbo = keep
}

// Pin implements Store: it records the current reclamation epoch as in use.
// A reader takes its pin where no Collect can run — a runtime reader, inside
// the turn in which it collected the slice pointers — so that the pin is
// ordered before any pass that could drop those slices' segments.
func (es *EpochStore) Pin() Pin {
	es.pinMu.Lock()
	es.pinSeq++
	id := es.pinSeq
	es.pins = append(es.pins, pinRec{id: id, epoch: es.epoch})
	es.pinMu.Unlock()
	return Pin{es: es, id: id}
}

// unpin removes the pin and recycles any limbo it alone was protecting.
func (es *EpochStore) unpin(id uint64) {
	es.pinMu.Lock()
	for i, p := range es.pins {
		if p.id == id {
			last := len(es.pins) - 1
			es.pins[i] = es.pins[last]
			es.pins = es.pins[:last]
			break
		}
	}
	es.drainLimboLocked()
	es.pinMu.Unlock()
}

// ForEachSealed calls fn for every slice in every sealed segment, stripe by
// stripe. Each stripe's segment list and each segment's member list are
// snapshotted under the stripe mutex (trimming replaces the member list, so
// the field itself must be read under the lock); the snapshotted lists are
// never mutated afterwards, so iteration runs without locks. Callers that
// dereference payload bytes must hold a Pin taken before the segments of
// interest could have been dropped; the slices form a consistent snapshot
// of each stripe's sealed log at the moment it was visited.
func (es *EpochStore) ForEachSealed(fn func(*Slice)) {
	for i := range es.stripes {
		sp := &es.stripes[i]
		sp.mu.Lock()
		var snap [][]*Slice
		for _, seg := range sp.sealed {
			snap = append(snap, seg.slices)
		}
		sp.mu.Unlock()
		for _, slices := range snap {
			for _, s := range slices {
				fn(s)
			}
		}
	}
}

// SetPoison enables poison-on-free on the chunk pool (test hook): recycled
// arena chunks are overwritten so a stale alias reads garbage loudly.
func (es *EpochStore) SetPoison(on bool) { es.pool.SetPoison(on) }

// Stripes returns the number of usage-attribution stripes.
func (es *EpochStore) Stripes() int { return es.perStripe.Len() }

// StripeUsed returns the usage attributed to one stripe.
func (es *EpochStore) StripeUsed(stripe int) int64 { return es.perStripe.Load(stripe) }

// Used returns the current metadata-space usage in bytes.
func (es *EpochStore) Used() uint64 { return uint64(es.used.Load()) }

// HighWater returns the metadata-space usage high-water mark.
func (es *EpochStore) HighWater() uint64 { return uint64(es.highWater.Load()) }

// GCCount returns the number of Collect passes that reclaimed slices.
func (es *EpochStore) GCCount() uint64 { return es.gcCount.Load() }

// EmptyGCCount returns the number of Collect passes that reclaimed nothing.
func (es *EpochStore) EmptyGCCount() uint64 { return es.emptyGC.Load() }

// Live returns the number of live (uncollected) slices.
func (es *EpochStore) Live() int { return int(es.live.Load()) }

// TotalCreated returns the number of slices ever committed.
func (es *EpochStore) TotalCreated() uint64 { return es.totalCreated.Load() }

// Metrics implements Store.
func (es *EpochStore) Metrics() Metrics {
	return Metrics{
		SegmentsLive:         uint64(es.segsLive.Load()),
		SegmentsDropped:      es.segsDropped.Load(),
		ArenaChunksAllocated: es.pool.Allocated(),
		ArenaChunksReused:    es.pool.Reused(),
		ArenaBytesInterned:   es.interned.Load(),
	}
}
