package mem

import (
	"math/bits"
	"sync"
)

// PendFold bounds a PendingPage's references: the pend that brings the list to
// PendFold folds it into the page's PagePatch, so a page pended thousands of
// times before a read (water_ns's joins) holds one patch and a short list.
const PendFold = 16

// PendingPage is one page's lazily pended modifications (§4.5): the run lists
// propagated onto it, in order, by reference — never a copy of their bytes, so
// the lists must not change; a published slice's Mods never do. A record is
// dead after ApplyPending, Discard or Release: the pool may re-issue it.
type PendingPage struct {
	page   PageID
	refs   [][]Run
	folded *PagePatch // last writer wins over every list older than refs
}

var pendingPool = sync.Pool{New: func() any { return &PendingPage{refs: make([][]Run, 0, PendFold)} }}

// NewPendingPage returns an empty record for page id.
func NewPendingPage(id PageID) *PendingPage {
	p := pendingPool.Get().(*PendingPage)
	p.page = id
	return p
}

// Len returns the number of references held, always below PendFold.
func (p *PendingPage) Len() int { return len(p.refs) }

// Pend records runs, which lie on p's page, as the newest modifications.
func (p *PendingPage) Pend(runs []Run) {
	if p.refs = append(p.refs, runs); len(p.refs) < PendFold {
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

// PendRunsByPage pends each stretch of consecutive runs on one page as one
// sub-slice of runs; a run across a page boundary (an unaligned atomic's
// micro-slice) is cut, and its pieces go in fresh lists.
func PendRunsByPage(runs []Run, pendFor func(PageID) *PendingPage) {
	for len(runs) > 0 {
		r, id := runs[0], PageOf(runs[0].Addr)
		if n := PageSize - int(r.Addr&PageMask); len(r.Data) > n {
			pendFor(id).Pend([]Run{{Addr: r.Addr, Data: r.Data[:n:n]}})
			runs = append([]Run{{Addr: r.Addr + uint64(n), Data: r.Data[n:]}}, runs[1:]...)
			continue
		}
		j := 1
		for j < len(runs) && PageOf(runs[j].Addr) == id && PageOf(runs[j].End()-1) == id {
			j++
		}
		pendFor(id).Pend(runs[:j:j])
		runs = runs[j:]
	}
}

// ApplyPending writes p's pended bytes like ApplyRuns and releases p: runs go
// newest first under a mask of the bytes written, so a covered run is skipped
// and every other byte copied once from its payload; the folded patch, oldest,
// lands where none wrote. It returns the runs, bytes and distinct bytes.
func (s *Space) ApplyPending(p *PendingPage) (runs, raw, distinct uint64) {
	dst := s.writablePage(p.page).Data[:]
	var done flushMask
	for k := len(p.refs) - 1; k >= 0; k-- {
		for i := len(p.refs[k]) - 1; i >= 0; i-- {
			r := p.refs[k][i]
			runs, raw = runs+1, raw+uint64(len(r.Data))
			done.copyNew(dst, uint32(r.Addr&PageMask), r.Data)
		}
	}
	if q := p.folded; q != nil {
		for ws := q.words; ws != 0; ws &= ws - 1 {
			q.mask[bits.TrailingZeros64(ws)] &^= done.mask[bits.TrailingZeros64(ws)]
		}
		q.mergeInto(dst)
		runs, raw, distinct = runs+q.rawRuns, raw+q.rawBytes, q.UniqueBytes()
	}
	distinct += done.bytes()
	p.Release()
	return runs, raw, distinct
}

// Discard releases p unapplied and returns what ApplyPending would have: the
// runs, bytes and distinct bytes. It is a count-only walk, with no page, no
// copy and no protection change: the distinct bytes are those the runs and
// the folded patch cover, in any order, so each run only marks its span.
func (p *PendingPage) Discard() (runs, raw, distinct uint64) {
	var done flushMask
	if q := p.folded; q != nil {
		runs, raw, done.words, done.mask = q.rawRuns, q.rawBytes, q.words, q.mask
	}
	for _, list := range p.refs {
		for _, r := range list {
			runs, raw = runs+1, raw+uint64(len(r.Data))
			off := uint32(r.Addr & PageMask)
			end := off + uint32(len(r.Data))
			for w := off / 64; w*64 < end; w++ { // an empty run marks nothing
				done.mask[w] |= spanBits(w, off, end)
				done.words |= 1 << w
			}
		}
	}
	distinct = done.bytes()
	p.Release()
	return runs, raw, distinct
}

// flushMask is ApplyPending's record of the bytes the references wrote, a
// mask and its summary word as in a PagePatch.
type flushMask struct {
	words uint64
	mask  [maskWords]uint64
}

// bytes returns the number of bytes marked.
func (f *flushMask) bytes() uint64 {
	var n int
	for ws := f.words; ws != 0; ws &= ws - 1 {
		n += bits.OnesCount64(f.mask[bits.TrailingZeros64(ws)])
	}
	return uint64(n)
}

// copyNew copies the bytes of data, bound for dst[off:], that no newer run
// wrote, and marks them written.
func (f *flushMask) copyNew(dst []byte, off uint32, data []byte) {
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
	for w := first; w <= last; w++ {
		want := spanBits(w, off, end)
		// Partly a newer run's: copy the stretches between its bytes.
		for free := want &^ f.mask[w]; !untouched && free != 0; {
			lo := uint32(bits.TrailingZeros64(free))
			n := uint32(bits.TrailingZeros64(^(free >> lo)))
			copy(dst[w*64+lo:w*64+lo+n], data[w*64+lo-off:])
			free &^= fullWord >> (64 - n) << lo
		}
		f.mask[w] |= want
	}
	if untouched {
		copy(dst[off:end], data)
	}
	f.words |= fullWord << first & (fullWord >> (63 - last))
}

// spanBits is mask word w's bits of the bytes [off, end), which overlap it.
func spanBits(w, off, end uint32) uint64 {
	lo, hi := max(off, w*64), min(end, w*64+64)
	return fullWord >> (64 - (hi - lo)) << (lo - w*64)
}
