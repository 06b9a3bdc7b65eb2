package mem

import (
	"math/bits"
	"slices"
	"sync"
)

// pendFold bounds a PendingPage's references: the pend that brings the list to
// pendFold folds it into the page's PagePatch, so a page pended thousands of
// times before a read (water_ns's joins) holds one patch and a short list.
const pendFold = 16

// PendingPage is one page's lazily pended modifications (§4.5): the run lists
// propagated onto it, in order, by reference — never a copy of their bytes, so
// the lists must not change; a published slice's Mods never do. A space holds
// one per pended page (Space.Pend) until FlushPending; a record is dead after
// applyPending, Discard or Release: the pool may re-issue it.
type PendingPage struct {
	page   PageID
	refs   [][]Run
	folded *PagePatch // last writer wins over every list older than refs
}

var pendingPool = sync.Pool{New: func() any { return &PendingPage{refs: make([][]Run, 0, pendFold)} }}

// newPendingPage returns an empty record for page id.
func newPendingPage(id PageID) *PendingPage {
	p := pendingPool.Get().(*PendingPage)
	p.page = id
	return p
}

// Len returns the number of references held, always below pendFold.
func (p *PendingPage) Len() int { return len(p.refs) }

// Pend records runs, which lie on p's page, as the newest modifications.
func (p *PendingPage) Pend(runs []Run) {
	if p.refs = append(p.refs, runs); len(p.refs) < pendFold {
		return
	}
	q := p.folded
	if q == nil {
		q = NewPagePatch(p.page)
		p.folded = q
	}
	for _, runs := range p.refs {
		for _, r := range runs {
			q.AddRun(r)
		}
	}
	clear(p.refs)
	p.refs = p.refs[:0]
}

// Release gives the record back without applying it.
func (p *PendingPage) Release() {
	if p.folded != nil {
		p.folded.Release()
	}
	clear(p.refs)
	p.refs, p.folded = p.refs[:0], nil
	pendingPool.Put(p)
}

// Pend records runs — a published slice's Mods, which must never change — as
// the newest modifications of the pages they lie on, each stretch of
// consecutive runs on one page as one sub-slice of runs; a run across a page
// boundary (an unaligned atomic's micro-slice) is cut, and its pieces go in
// fresh lists. From here until FlushPending any access to such a page faults.
func (s *Space) Pend(runs []Run) {
	for len(runs) > 0 {
		r, id := runs[0], PageOf(runs[0].Addr)
		if n := PageSize - int(r.Addr&PageMask); len(r.Data) > n {
			s.pendOn(id).Pend([]Run{{Addr: r.Addr, Data: r.Data[:n:n]}})
			runs = append([]Run{{Addr: r.Addr + uint64(n), Data: r.Data[n:]}}, runs[1:]...)
			continue
		}
		j := 1
		for j < len(runs) && PageOf(runs[j].Addr) == id && PageOf(runs[j].End()-1) == id {
			j++
		}
		s.pendOn(id).Pend(runs[:j:j])
		runs = runs[j:]
	}
}

// pendOn returns page id's record, starting one, and setting the page's slot
// to it, if the page has none.
func (s *Space) pendOn(id PageID) *PendingPage {
	if p := s.pended[id]; p != nil {
		return p
	}
	if s.pended == nil {
		s.pended = make(map[PageID]*PendingPage)
	}
	p := newPendingPage(id)
	s.pended[id] = p
	if c := &s.cache[id%pageCacheSize]; c.id == id {
		c.pend = p
	}
	return p
}

// Pended reports whether page id has pended runs.
func (s *Space) Pended(id PageID) bool { return s.pended[id] != nil }

// PendedPages appends the pages with pended runs to dst in ascending order.
func (s *Space) PendedPages(dst []PageID) []PageID {
	n := len(dst)
	for id := range s.pended {
		dst = append(dst, id)
	}
	slices.Sort(dst[n:])
	return dst
}

// FlushPending settles page id's pended runs, which it must have, and lets its
// accesses through again: with apply it writes them (applyPending), without it
// only counts them (Discard), leaving the page as it was. It returns the runs,
// bytes and distinct bytes.
func (s *Space) FlushPending(id PageID, apply bool) (runs, raw, distinct uint64) {
	p := s.pended[id]
	delete(s.pended, id)
	if c := &s.cache[id%pageCacheSize]; c.id == id {
		c.pend = nil
	}
	if !apply {
		return p.Discard()
	}
	return s.applyPending(p)
}

// applyPending writes p's pended bytes like ApplyRuns and releases p: runs go
// newest first under a mask of the bytes written, so a covered run is skipped
// and every other byte copied once from its payload; the folded patch, oldest,
// lands where none wrote. It returns the runs, bytes and distinct bytes.
func (s *Space) applyPending(p *PendingPage) (runs, raw, distinct uint64) {
	dst := s.writablePage(p.page).Data[:]
	var done byteMask
	for k := len(p.refs) - 1; k >= 0; k-- {
		for i := len(p.refs[k]) - 1; i >= 0; i-- {
			r := p.refs[k][i]
			runs, raw = runs+1, raw+uint64(len(r.Data))
			done.copyNew(dst, uint32(r.Addr&PageMask), r.Data)
		}
	}
	if q := p.folded; q != nil {
		for ws := q.written.words; ws != 0; ws &= ws - 1 {
			q.written.mask[bits.TrailingZeros64(ws)] &^= done.mask[bits.TrailingZeros64(ws)]
		}
		q.mergeInto(dst)
		runs, raw, distinct = runs+q.rawRuns, raw+q.rawBytes, q.UniqueBytes()
	}
	distinct += done.count()
	p.Release()
	return runs, raw, distinct
}

// Discard releases p unapplied and returns what applyPending would have: the
// runs, bytes and distinct bytes. It is a count-only walk, with no page and no
// copy: the distinct bytes are those the runs and the folded patch cover, in
// any order, so each run only marks its span.
func (p *PendingPage) Discard() (runs, raw, distinct uint64) {
	var done byteMask
	if q := p.folded; q != nil {
		runs, raw, done = q.rawRuns, q.rawBytes, q.written
	}
	for _, list := range p.refs {
		for _, r := range list {
			runs, raw = runs+1, raw+uint64(len(r.Data))
			if off := uint32(r.Addr & PageMask); len(r.Data) > 0 {
				done.set(off, off+uint32(len(r.Data)))
			}
		}
	}
	distinct = done.count()
	p.Release()
	return runs, raw, distinct
}

// copyNew copies the bytes of data, bound for dst[off:], that f does not
// mark, and marks them: applyPending walks the runs newest first, so f marks
// the bytes a newer run wrote.
func (f *byteMask) copyNew(dst []byte, off uint32, data []byte) {
	end := off + uint32(len(data))
	if end == off {
		return
	}
	first, last := off/64, (end-1)/64
	covered, untouched := true, true
	for w := first; w <= last; w++ {
		want := spanBits(w, off, end)
		covered, untouched = covered && f.mask[w]&want == want, untouched && f.mask[w]&want == 0
	}
	if covered { // a newer run wrote every byte
		return
	}
	if untouched {
		copy(dst[off:end], data)
	} else {
		for w := first; w <= last; w++ {
			// Partly a newer run's: copy the stretches between its bytes.
			for free := spanBits(w, off, end) &^ f.mask[w]; free != 0; {
				lo := uint32(bits.TrailingZeros64(free))
				n := uint32(bits.TrailingZeros64(^(free >> lo)))
				copy(dst[w*64+lo:w*64+lo+n], data[w*64+lo-off:])
				free &^= fullWord >> (64 - n) << lo
			}
		}
	}
	f.set(off, end)
}

// spanBits is mask word w's bits of the bytes [off, end), which overlap it.
func spanBits(w, off, end uint32) uint64 {
	lo, hi := max(off, w*64), min(end, w*64+64)
	return fullWord >> (64 - (hi - lo)) << (lo - w*64)
}
