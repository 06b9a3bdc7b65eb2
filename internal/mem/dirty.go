package mem

// Sub-page dirty-extent tracking.
//
// The paper's implementation detects writes with mprotect/SIGSEGV page
// faults (§4.2–4.3), so the finest granularity it can learn *cheaply* is a
// page: the diff at slice end must byte-scan every snapshotted page to
// recover the modified bytes. Our simulated Space intercepts every monitored
// store, so it can record *exactly* which bytes were written and hand the
// slice-end diff a precise scan list — the Louvre-style observation
// (PAPERS.md) that ordering metadata can live at sub-page granularity.
//
// Each tracked page keeps a coalescing interval list of written ranges and
// degrades to a per-64-byte-chunk bitmap (one uint64 per page) once the list
// fragments past maxExtentsPerPage. Both representations are strict
// *supersets* of the bytes modified since the slice's page snapshot: extents
// record where writes happened, not whether they changed anything, so
// same-value overwrites are included and the §4.6 redundant-write exclusion
// still happens byte-by-byte in the diff itself (DiffPageExtents). The
// superset property is what makes extent-guided diffing exactly equivalent
// to a full-page scan: every byte outside all extents was never written and
// therefore equals the snapshot.
//
// The tracker is reset at every slice end; propagation writes (ApplyRuns)
// are intentionally NOT tracked — they land only between slices, before any
// snapshot of the affected page exists, so the snapshot baseline already
// contains them (§4.3's "must not be monitored as local modifications").

import "sort"

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
	// ChunkShift is log2 of the bitmap chunk size.
	ChunkShift = 6
	// ChunkSize is the dirty-bitmap granularity in bytes. PageSize/ChunkSize
	// is exactly 64, so the fallback bitmap is a single uint64 per page.
	ChunkSize = 1 << ChunkShift
	// maxExtentsPerPage is the fragmentation threshold: when coalescing would
	// leave more than this many intervals on one page, the page degrades to
	// the chunk bitmap (O(1) marking, ≤64-byte scan granularity) instead of
	// paying O(extents) insertion on every store.
	maxExtentsPerPage = 16
)

// dirtyPage is the current slice's record of one page: where it was written
// — a sorted, coalesced interval list (precise) or a per-chunk bitmap
// (compact, after fragmentation) — and the monitor's snapshot of it
// (SnapshotPage), the record's until ResetDirty. Under a monitor every record
// has both by slice end: a snapshot is taken only by a store's
// instrumentation, just before the space store that marks every page it
// snapshotted, or by the fault handler that store fires; a panic in between
// aborts the execution, and an aborted exit never diffs.
type dirtyPage struct {
	extents   []Extent
	snap      []byte
	bitmap    uint64
	bitmapped bool
}

// chunkMask returns the bitmap bits covering [off, off+n).
func chunkMask(off, n uint32) uint64 {
	lo := off >> ChunkShift
	hi := (off + n - 1) >> ChunkShift
	width := hi - lo + 1
	if width >= 64 {
		return ^uint64(0)
	}
	return ((uint64(1) << width) - 1) << lo
}

// mark records the write [off, off+n) on the page. One that starts inside the
// last extent or at its end — a sequential loop's next store, a rewrite —
// grows that extent in place: nothing lies beyond it to merge with.
func (d *dirtyPage) mark(off, n uint32) {
	if n == 0 {
		return
	}
	if d.bitmapped {
		d.bitmap |= chunkMask(off, n)
		return
	}
	if k := len(d.extents); k > 0 {
		if last := &d.extents[k-1]; off >= last.Off && off <= last.End() {
			if end := off + n; end > last.End() {
				last.Len = end - last.Off
			}
			return
		}
	}
	d.extents = insertExtent(d.extents, off, n)
	if len(d.extents) > maxExtentsPerPage {
		d.toBitmap()
	}
}

// insertExtent merges [off, off+n) into a sorted, coalesced extent list and
// returns the updated list. Touching intervals merge too, keeping the list
// gap-separated — which is what lets DiffPageExtents treat extent boundaries
// as run boundaries. It serves the dirty tracker, which leaves it for the
// chunk bitmap past maxExtentsPerPage, and the read tracker; a write plan's
// patches, which can neither degrade nor afford a search per run, keep a
// byte mask instead (plan.go). n must be non-zero.
func insertExtent(exts []Extent, off, n uint32) []Extent {
	end := off + n
	// Fast path: strictly past the last extent. Diff runs and sequential
	// writes arrive in ascending address order, so fragmented pages (which
	// would otherwise pay a per-insert scan of the whole list) append here
	// in O(1).
	if len(exts) == 0 || off > exts[len(exts)-1].End() {
		return append(exts, Extent{Off: off, Len: n})
	}
	// Binary-search the first extent that overlaps or touches [off, end).
	i := sort.Search(len(exts), func(k int) bool { return exts[k].End() >= off })
	j := i
	for j < len(exts) && exts[j].Off <= end {
		j++
	}
	if i == j {
		// No overlap: plain insertion at i.
		exts = append(exts, Extent{})
		copy(exts[i+1:], exts[i:])
		exts[i] = Extent{Off: off, Len: n}
		return exts
	}
	// Merge [i, j) with the new range.
	if exts[i].Off < off {
		off = exts[i].Off
	}
	if e := exts[j-1].End(); e > end {
		end = e
	}
	exts[i] = Extent{Off: off, Len: end - off}
	return append(exts[:i+1], exts[j:]...)
}

// toBitmap converts the interval list into the chunk bitmap. The list's
// storage stays with the page, for snapshotExtents to render into.
func (d *dirtyPage) toBitmap() {
	var bm uint64
	for _, e := range d.extents {
		bm |= chunkMask(e.Off, e.Len)
	}
	d.bitmap = bm
	d.bitmapped = true
	d.extents = d.extents[:0]
}

// snapshotExtents renders the page's dirty set as a sorted, coalesced,
// gap-separated extent list. In bitmap mode, runs of consecutive set chunks
// coalesce into single extents. Either way the result is the page's own
// list, valid until the page is next marked or recycled.
func (d *dirtyPage) snapshotExtents() []Extent {
	if !d.bitmapped {
		return d.extents
	}
	out := d.extents[:0]
	bm := d.bitmap
	for c := uint32(0); c < PageSize/ChunkSize; c++ {
		if bm&(1<<c) == 0 {
			continue
		}
		start := c
		for c+1 < PageSize/ChunkSize && bm&(1<<(c+1)) != 0 {
			c++
		}
		out = append(out, Extent{Off: start * ChunkSize, Len: (c - start + 1) * ChunkSize})
	}
	d.extents = out
	return out
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
// space. Disabling also discards any recorded state. The RFDet monitors
// enable tracking when a thread starts monitoring modifications; baselines
// that diff full pages (DThreads) leave it off and pay the full-page scan.
func (s *Space) SetDirtyTracking(on bool) {
	s.trackDirty = on
	if !on {
		s.ResetDirty()
	} else if s.dirty == nil {
		s.dirty = make(map[PageID]*dirtyPage)
	}
}

// DirtyTracking reports whether sub-page dirty tracking is enabled.
func (s *Space) DirtyTracking() bool { return s.trackDirty }

// ResetDirty discards every page record (slice end): the snapshot goes back
// to the pool and the record is parked, extent storage attached, for recordOf
// to hand to another page — so its own page's slot lets go of it here (those
// slots only: water_ns, three accesses per slice, paid 1.8% for a 16-slot
// clear). Every DirtyExtentsOf list and SnapshotOf buffer is dead from here on.
func (s *Space) ResetDirty() {
	for _, id := range s.dirtyOrder {
		d := s.dirty[id]
		if c := &s.cache[id%pageCacheSize]; c.id == id {
			c.d = nil
		}
		PutPageBuf(d.snap)
		poison(d.extents, poisonedExtent)
		*d = dirtyPage{extents: d.extents[:0]}
		s.dirtyFree = append(s.dirtyFree, d)
	}
	clear(s.dirty)
	s.dirtyOrder = s.dirtyOrder[:0]
}

// DirtyPageCount returns the number of pages with recorded dirty extents.
func (s *Space) DirtyPageCount() int { return len(s.dirty) }

// DirtyPages returns the dirty pages in first-write order — the same order
// in which the monitor snapshotted them, since the snapshot is taken on the
// first write of a page in a slice and the mark lands with that write. The
// returned slice aliases internal state; do not retain it across ResetDirty.
func (s *Space) DirtyPages() []PageID { return s.dirtyOrder }

// DirtyExtentsOf returns page id's dirty extents as a sorted, coalesced,
// gap-separated list, or nil if the page has no recorded writes (or
// tracking is off). The returned extents are a superset of the bytes
// modified since the page's snapshot; see DiffPageExtents. The list aliases
// tracker state: it is valid until the page's next store or ResetDirty.
func (s *Space) DirtyExtentsOf(id PageID) []Extent {
	d, ok := s.dirty[id]
	if !ok {
		return nil
	}
	return d.snapshotExtents()
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
	if n := len(s.dirtyFree); n > 0 {
		d, s.dirtyFree = s.dirtyFree[n-1], s.dirtyFree[:n-1]
	} else {
		d = &dirtyPage{}
	}
	s.dirty[id] = d
	s.dirtyOrder = append(s.dirtyOrder, id)
	if c := &s.cache[id%pageCacheSize]; c.id == id {
		c.d = d
	}
	return d
}

// SnapshotPage takes the slice's snapshot of page id (Figure 4 of the
// paper): a copy of its current contents, kept in the page's record until
// ResetDirty hands the buffer back. Dirty tracking must be on.
func (s *Space) SnapshotPage(id PageID) {
	// The buffer is owned by the page's record until ResetDirty, which hands
	// every record's snapshot to PutPageBuf.
	s.recordOf(id).snap = s.Snapshot(id)
}

// SnapshotOf returns the slice's snapshot of page id, nil if it has none.
// The buffer is the record's: it is valid until ResetDirty.
func (s *Space) SnapshotOf(id PageID) []byte {
	if d := s.record(id); d != nil {
		return d.snap
	}
	return nil
}
