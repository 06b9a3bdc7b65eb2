package mem

// Per-slice read-set tracking for the happens-before race detector
// (internal/racecheck).
//
// Mirrors the dirty-write tracker (dirty.go): each page read keeps a mask of
// a bit per byte, set by every load of the slice, and ReadExtentsOf renders
// its runs. Read extents feed conflict detection directly, so they must be
// exact: a read widened to a coarser granule would manufacture overlaps with
// writes the program never observed, i.e. false races on race-free programs.
//
// Like dirty tracking, propagation writes and slice application are invisible
// here: only loads issued by the owning thread through the checked access
// path mark read extents. The tracker is harvested and reset at every slice
// end.

import "sync"

// readSet is one page's read set: the bytes loaded, and the storage
// ReadExtentsOf renders them into.
type readSet struct {
	exts   []Extent
	loaded byteMask
}

// readPool recycles read sets with their extent storage, as dirtyPool does
// page records.
var readPool = sync.Pool{New: func() any { return new(readSet) }}

// SetReadTracking enables or disables per-slice read-set tracking. Disabling
// also discards any recorded state. Only the race detector turns this on;
// the default path never allocates the map.
func (s *Space) SetReadTracking(on bool) {
	s.trackReads = on
	if !on {
		s.ResetReads()
		s.reads = nil
	} else if s.reads == nil {
		s.reads = make(map[PageID]*readSet)
	}
}

// ReadTracking reports whether read-set tracking is enabled.
func (s *Space) ReadTracking() bool { return s.trackReads }

// ResetReads discards all recorded read sets (slice end), handing them back
// to readPool.
func (s *Space) ResetReads() {
	for _, id := range s.readOrder {
		r := s.reads[id]
		poison(r.exts, poisonedExtent)
		r.exts = r.exts[:0]
		r.loaded.reset()
		readPool.Put(r)
	}
	clear(s.reads)
	s.readOrder = s.readOrder[:0]
	s.lastReadID, s.lastRead = 0, nil
}

// ReadPages returns pages with recorded reads in first-read order. The
// returned slice aliases internal state; do not retain it across ResetReads.
func (s *Space) ReadPages() []PageID { return s.readOrder }

// ReadExtentsOf returns page id's read extents as a sorted, coalesced,
// gap-separated list, or nil if the page has no recorded reads: every byte in
// the list was loaded by the owning thread during the current slice, and no
// byte outside it was. The list aliases the read set's storage: it is valid
// until the page's next load or ResetReads.
func (s *Space) ReadExtentsOf(id PageID) []Extent {
	r, ok := s.reads[id]
	if !ok {
		return nil
	}
	r.exts = r.loaded.appendExtents(r.exts[:0])
	return r.exts
}

// markRead records a load of n bytes at page-local offset off; n must not be
// zero. The single-entry cache makes tight loops over one page skip the map
// lookup.
func (s *Space) markRead(id PageID, off, n uint32) {
	r := s.lastRead
	if r == nil || s.lastReadID != id {
		var ok bool
		r, ok = s.reads[id]
		if !ok {
			r = readPool.Get().(*readSet)
			s.reads[id] = r
			s.readOrder = append(s.readOrder, id)
		}
		s.lastReadID, s.lastRead = id, r
	}
	r.loaded.set(off, off+n)
}
