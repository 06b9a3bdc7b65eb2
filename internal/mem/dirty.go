package mem

// Sub-page dirty tracking.
//
// The paper's implementation detects writes with mprotect/SIGSEGV page
// faults (§4.2–4.3), so the finest granularity it can learn *cheaply* is a
// page: the diff at slice end must byte-scan every snapshotted page to
// recover the modified bytes. Our simulated Space intercepts every monitored
// store, so it can record *exactly* which bytes were written and hand the
// slice-end diff a precise scan list — the Louvre-style observation
// (PAPERS.md) that ordering metadata can live at sub-page granularity.
//
// Each tracked page keeps one mask of a bit per byte, set by every store of
// the slice to it, and DirtyExtentsOf renders the mask's runs as extents.
// They are exactly the bytes written since the slice's page snapshot: where
// writes happened, not whether they changed anything, so same-value
// overwrites are included and the §4.6 redundant-write exclusion still
// happens byte-by-byte in the diff itself (DiffPageExtents). Every byte
// outside the extents was never written and therefore equals the snapshot,
// which is what makes extent-guided diffing exactly equivalent to a
// full-page scan.
//
// The same knowledge makes the snapshot sub-page: a store copies into it only
// the 64-byte chunks it is the first of the slice to write, just before it
// writes them, and the diff reads the snapshot only there.
//
// The tracker is reset at every slice end; propagation writes (ApplyRuns)
// are intentionally NOT tracked — they land only between slices, before any
// snapshot of the affected page exists, so the snapshot baseline already
// contains them (§4.3's "must not be monitored as local modifications").

import (
	"math/bits"
	"sync"
)

// Extent is a dirty byte range [Off, Off+Len) within one page.
type Extent struct {
	Off uint32
	Len uint32
}

// End returns the first offset past the extent.
func (e Extent) End() uint32 { return e.Off + e.Len }

// poisonedExtent is what a recycled extent list is overwritten with when
// poison-on-recycle is on (SetPageBufPoison).
var poisonedExtent = Extent{Off: 0xDBDBDBDB, Len: 0xDBDBDBDB}

const (
	// ChunkShift is log2 of the snapshot's chunk size.
	ChunkShift = 6
	// ChunkSize is the granularity in bytes at which a snapshot is copied:
	// one word of a byteMask, so a mask's words summary is the set of chunks
	// a slice has stored to.
	ChunkSize = 1 << ChunkShift
	// denseChunks is how many chunks a snapshot copies one at a time: the
	// store that takes it past this copies the rest of the page in one go.
	// Copying chunk by chunk beats a whole copy below about 16 chunks and
	// loses at 64; the benchmark programs' pages hold at most 12 or all 64
	// (fft switches on 232 of its 284 snapshot pages per run, water_ns and
	// the KV server never). EXPERIMENTS.md, "First-touch snapshots".
	denseChunks = 16
)

// dirtyPage is the current slice's record of one page: the bytes the slice
// stored to it and the monitor's snapshot of it (SnapshotPage), the record's
// until ResetDirty. Under a monitor every record has a snapshot by slice end:
// a snapshot is taken only by the fault handler a store fires
// (SetDirtyTracking), just before that store marks the page; a panic in
// between aborts the execution, and an aborted exit never diffs.
//
// The snapshot is filled lazily: mark copies a chunk at the slice's first
// store to it, before the store writes it. So the snapshot is valid on every
// chunk the slice stored to — all the diff reads — and garbage elsewhere.
// exts is where DirtyExtentsOf renders the written bytes. Records come from
// dirtyPool and go back to it at ResetDirty.
type dirtyPage struct {
	snap    []byte
	exts    []Extent
	written byteMask
}

// dirtyPool recycles page records with their extent storage: every spawn and
// every barrier re-clone starts a space with none.
var dirtyPool = sync.Pool{New: func() any { return new(dirtyPage) }}

// mark records the write [off, off+n) on the page, whose data the store has
// not written yet, and copies into the snapshot the chunks of it no earlier
// store of the slice wrote: the chunks whose mask word was zero, or, at the
// store that takes the page past denseChunks written chunks, the rest of the
// page. A record without a snapshot (no monitor asked for one) copies
// nothing. n must not be zero.
func (d *dirtyPage) mark(page *[PageSize]byte, off, n uint32) {
	was := d.written.words
	d.written.set(off, off+n)
	m := d.written.words &^ was
	if m == 0 || d.snap == nil || bits.OnesCount64(was) > denseChunks {
		return
	}
	if bits.OnesCount64(d.written.words) > denseChunks {
		m = ^was
	}
	for m != 0 {
		lo := bits.TrailingZeros64(m)
		hi := lo + bits.TrailingZeros64(^(m >> lo))
		copy(d.snap[lo<<ChunkShift:hi<<ChunkShift], page[lo<<ChunkShift:hi<<ChunkShift])
		m &= ^uint64(0) << hi
	}
}

// ExtentBytes returns the total byte length of exts.
func ExtentBytes(exts []Extent) uint64 {
	var n uint64
	for _, e := range exts {
		n += uint64(e.Len)
	}
	return n
}

//
// Space-level tracking.
//

// SetDirtyTracking enables or disables sub-page dirty tracking on this
// space. Disabling also discards any recorded state. While tracking is on
// and a handler is installed, a store to a page the slice has no record of
// is a write fault: the handler is called with write set, after any
// pended-page fault the store takes, and the store starts the page's record
// if the handler did not (SnapshotPage does). So a page write-faults once a
// slice, at its first store; SnapshotPage itself never faults. Every monitor
// — RFDet's two and DThreads' — snapshots there.
func (s *Space) SetDirtyTracking(on bool) {
	s.trackDirty = on
	if !on {
		s.ResetDirty()
	} else if s.dirty == nil {
		s.dirty = make(map[PageID]*dirtyPage)
	}
}

// ResetDirty discards every page record (slice end): the snapshot goes back
// to its pool and the record, extent storage attached, to dirtyPool — so its
// own page's slot lets go of it here (those slots only: water_ns, three
// accesses per slice, paid 1.8% for a 16-slot clear). Every DirtyExtentsOf
// list and SnapshotOf buffer is dead from here on.
func (s *Space) ResetDirty() {
	for _, id := range s.dirtyOrder {
		d := s.dirty[id]
		if c := &s.cache[id%pageCacheSize]; c.id == id {
			c.d = nil
		}
		PutPageBuf(d.snap)
		poison(d.exts, poisonedExtent)
		d.snap, d.exts = nil, d.exts[:0]
		d.written.reset()
		dirtyPool.Put(d)
	}
	clear(s.dirty)
	s.dirtyOrder = s.dirtyOrder[:0]
}

// DirtyPages returns the dirty pages in first-write order — the same order
// in which the monitor snapshotted them, since the snapshot is taken on the
// first write of a page in a slice and the mark lands with that write. The
// returned slice aliases internal state; do not retain it across ResetDirty.
func (s *Space) DirtyPages() []PageID { return s.dirtyOrder }

// DirtyExtentsOf returns page id's dirty extents — exactly the bytes the
// slice stored to — as a sorted, coalesced, gap-separated list, or nil if the
// page has no record (or tracking is off); DiffPageExtents says why they are
// all the diff needs. Each call renders the record's mask again, into the
// record's storage: the list is valid until the page's next store or
// ResetDirty.
func (s *Space) DirtyExtentsOf(id PageID) []Extent {
	d, ok := s.dirty[id]
	if !ok {
		return nil
	}
	d.exts = d.written.appendExtents(d.exts[:0])
	return d.exts
}

// record returns the slice's record of page id, nil if it has none, and
// leaves it in the page's slot for the next store to find.
func (s *Space) record(id PageID) *dirtyPage {
	c := &s.cache[id%pageCacheSize]
	if c.id != id {
		return s.dirty[id]
	}
	if c.d == nil {
		c.d = s.dirty[id]
	}
	return c.d
}

// recordOf returns the slice's record of page id, starting it on first touch.
func (s *Space) recordOf(id PageID) *dirtyPage {
	d := s.record(id)
	if d != nil {
		return d
	}
	d = dirtyPool.Get().(*dirtyPage)
	s.dirty[id] = d
	s.dirtyOrder = append(s.dirtyOrder, id)
	if c := &s.cache[id%pageCacheSize]; c.id == id {
		c.d = d
	}
	return d
}

// storeRecord is recordOf for a store about to write page id, which it has
// made writable: a page with no record takes the write fault first
// (SetDirtyTracking). Only the store path asks it.
func (s *Space) storeRecord(id PageID) *dirtyPage {
	if d := s.record(id); d != nil {
		return d
	}
	if s.onFault != nil {
		s.onFault(id, true)
	}
	return s.recordOf(id)
}

// SnapshotPage takes the slice's snapshot of page id (Figure 4 of the
// paper): a pooled buffer, kept in the page's record until ResetDirty hands it
// back, into which each store copies the chunks it is the first to write
// (dirtyPage.mark). It copies nothing itself: a chunk the slice never stores
// to is never read. Dirty tracking must be on, and the slice must not have
// stored to the page yet, as the monitors ensure: they snapshot in the fault
// a page's first store takes.
func (s *Space) SnapshotPage(id PageID) {
	// The buffer is owned by the page's record until ResetDirty, which hands
	// every record's snapshot to PutPageBuf.
	d := s.recordOf(id)
	d.snap = GetPageBuf()
}

// SnapshotOf returns the slice's snapshot of page id, nil if it has none.
// The buffer is the record's: it is valid until ResetDirty, and only on the
// chunks the slice has stored to — the page as it stood before the slice's
// first store to each.
func (s *Space) SnapshotOf(id PageID) []byte {
	if d := s.record(id); d != nil {
		return d.snap
	}
	return nil
}
