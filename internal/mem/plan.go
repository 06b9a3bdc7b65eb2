package mem

// Coalesced write plans (propagation fast path).
//
// Memory modification propagation applies an ordered list of slices to a
// target space "remote wins"-style: every slice's runs are written in list
// order, so a byte covered by k slices is written k times even though only
// the last write survives (§4.3's deterministic conflict policy). The
// acquire path therefore costs O(slices × bytes). A WritePlan collapses the
// list into its observable effect — for every destination byte, the value of
// the *last* run in list order that covers it — so applying the plan writes
// each unique byte exactly once: O(unique bytes).
//
// The collapse is a pure function of the run list, and applying it is
// exactly equivalent to sequential list-order application: both leave every
// covered byte at its last writer's value and touch no other byte, and no one
// can observe the intermediate states (the applying thread is between slices,
// or provably blocked under the monitor).
//
// A plan's per-page patches record what they have written in a mask of one
// bit per byte (byteMask), as a slice's page records and read sets do: a
// patch must know *exactly* the written bytes, never a superset, because the
// staging buffer holds garbage outside them, and marking a run costs a few
// word operations wherever it falls — a byte-granular diff of rewritten floats
// cuts some 300 runs of 13 bytes per page.

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// pageBufPool recycles page snapshot buffers: a slice needs one per
// first-touched page, and a per-P sync.Pool fits their per-buffer lifetimes
// (PutPageBuf once the slice-end diff has consumed the snapshot). Patches do
// not come through here: they are recycled whole, buffer attached (patchPool).
var pageBufPool = sync.Pool{New: func() any { return new([PageSize]byte) }}

// GetPageBuf returns a page-sized buffer from the pool. Its contents are
// unspecified — poisoned with the hook on — and callers must not read bytes
// they have not written.
func GetPageBuf() []byte {
	b := pageBufPool.Get().(*[PageSize]byte)[:]
	PoisonScratch(b)
	return b
}

// PutPageBuf returns a buffer obtained from GetPageBuf (or Space.Snapshot)
// to the pool. The caller must not retain the buffer afterwards. Buffers of
// any other length are dropped on the floor.
func PutPageBuf(b []byte) {
	if len(b) != PageSize {
		return
	}
	PoisonScratch(b)
	pageBufPool.Put((*[PageSize]byte)(b))
}

// poisonOnRecycle is the poison-on-recycle test hook, off by default: recycled
// storage — snapshot buffers, released patches' staging buffers, the
// extent lists rendered for page records and read sets, the runtime's payload
// staging area — is overwritten
// as it is given up, so whatever still aliases it reads garbage loudly
// instead of bytes that happen to still be right.
var poisonOnRecycle atomic.Bool

// SetPageBufPoison toggles poison-on-recycle.
func SetPageBufPoison(on bool) { poisonOnRecycle.Store(on) }

// PoisonScratch is what an owner of recycled byte storage calls when done
// with its contents: with poisoning on, b is overwritten, spare capacity too.
func PoisonScratch(b []byte) { poison(b, 0xDB) }

func poison[T any](s []T, v T) {
	if poisonOnRecycle.Load() {
		s = s[:cap(s)]
		for i := range s {
			s[i] = v
		}
	}
}

// PagePatch accumulates last-writer-wins writes to a single page: later
// AddRun calls overwrite earlier ones byte-for-byte, and the mask records
// exactly which bytes have been written. It backs plan construction and the
// fold of a PendingPage whose reference list reached pendFold.
//
// A patch is live from NewPagePatch until Release. A released patch is dead:
// it sits in patchPool or has been re-issued for another page, so no method
// may be called on it.
type PagePatch struct {
	page PageID
	// buf is the staging buffer, valid only under mask; nil on a dead patch.
	// own is the storage behind it, which stays with the patch.
	buf []byte
	own *[PageSize]byte
	// rawRuns/rawBytes count the absorbed input, before deduplication.
	rawRuns  uint64
	rawBytes uint64
	// written marks the bytes written, so the patch's runs — the maximal
	// stretches of marked bytes — are sorted, coalesced and gap-separated by
	// construction. It comes last so that everything else shares a cache
	// line.
	written byteMask
}

// byteMask marks bytes of one page: bit b of mask[w] is set iff byte 64w+b
// is marked, and words has bit w set iff mask[w] is non-zero. Nothing reads
// a mask word that words does not name, so a mask of a few short runs costs
// a few words per operation wherever on the page they fall, not maskWords.
type byteMask struct {
	words uint64
	mask  [maskWords]uint64
}

const (
	maskWords = PageSize / 64
	fullWord  = ^uint64(0)
)

// One uint64 has a bit for every word of the mask only while there are 64 of
// them; a PageSize that changes that does not compile.
var _ [64 - maskWords]struct{}
var _ [maskWords - 64]struct{}

// set marks the bytes [off, end), which must not be empty: the first word
// from off on, every word after it in full, and the last word up to end.
func (m *byteMask) set(off, end uint32) {
	first, last := off/64, (end-1)/64
	m.words |= fullWord << first & (fullWord >> (63 - last))
	head := fullWord << (off % 64)
	for w := first; w < last; w++ {
		m.mask[w] |= head
		head = fullWord
	}
	m.mask[last] |= head & (fullWord >> (63 - (end-1)%64))
}

// count returns the number of bytes marked.
func (m *byteMask) count() uint64 {
	var n int
	for ws := m.words; ws != 0; ws &= ws - 1 {
		n += bits.OnesCount64(m.mask[bits.TrailingZeros64(ws)])
	}
	return uint64(n)
}

// appendExtents appends the mask's runs — its maximal stretches of marked
// bytes, a run that ends at bit 63 of one word going on at bit 0 of the next —
// to exts as extents, in ascending order: sorted, coalesced and
// gap-separated.
func (m *byteMask) appendExtents(exts []Extent) []Extent {
	for ws := m.words; ws != 0; ws &= ws - 1 {
		w := uint32(bits.TrailingZeros64(ws))
		for x := m.mask[w]; x != 0; {
			lo := uint32(bits.TrailingZeros64(x))
			hi := lo + uint32(bits.TrailingZeros64(^(x >> lo)))
			if k := len(exts); k > 0 && exts[k-1].End() == w*64+lo {
				exts[k-1].Len += hi - lo
			} else {
				exts = append(exts, Extent{Off: w*64 + lo, Len: hi - lo})
			}
			x &= fullWord << hi
		}
	}
	return exts
}

// reset unmarks every byte, touching only the words that are marked.
func (m *byteMask) reset() {
	for ws := m.words; ws != 0; ws &= ws - 1 {
		m.mask[bits.TrailingZeros64(ws)] = 0
	}
	m.words = 0
}

// patchPool recycles released patches with their staging buffer, so a
// steady-state NewPagePatch allocates nothing.
var patchPool = sync.Pool{New: func() any { return &PagePatch{own: new([PageSize]byte)} }}

// NewPagePatch returns an empty patch for page id; call Release when done
// with it.
func NewPagePatch(id PageID) *PagePatch {
	p := patchPool.Get().(*PagePatch)
	p.page = id
	p.buf = p.own[:]
	return p
}

// AddRun absorbs a run, which must lie entirely within the patch's page.
// Later runs overwrite earlier ones on overlapping bytes.
func (p *PagePatch) AddRun(r Run) {
	n := uint32(len(r.Data))
	if n == 0 {
		return
	}
	off := uint32(r.Addr & PageMask)
	// The explicit upper bound makes a dead patch (nil buf) fail here.
	copy(p.buf[off:off+n], r.Data)
	p.written.set(off, off+n)
	p.rawRuns++
	p.rawBytes += uint64(n)
}

// UniqueBytes returns the number of distinct bytes written so far.
func (p *PagePatch) UniqueBytes() uint64 { return p.written.count() }

// Release gives the patch back for reuse; it is dead afterwards. Releasing a
// dead patch panics: it would go into the pool twice and out to two owners.
func (p *PagePatch) Release() {
	if p.buf == nil {
		panic("mem: PagePatch released twice")
	}
	PoisonScratch(p.buf)
	// Field by field: assigning a whole PagePatch would copy the mask.
	p.written.reset()
	p.page, p.buf, p.rawRuns, p.rawBytes = 0, nil, 0, 0
	patchPool.Put(p)
}

// mergeInto writes the patch's unique bytes over dst, a page-sized image of
// the patch's page, and leaves every other byte of dst as it was. A stretch
// of fully written words is one copy; a partly written word is merged eight
// bytes at a time by byte-select, which reads bytes outside the mask on both
// sides — garbage from the staging buffer, discarded by the select, and
// dst's own, written back unchanged. That write-back is why nothing else may
// be reading dst meanwhile.
func (p *PagePatch) mergeInto(dst []byte) {
	src, mask := p.buf, &p.written.mask
	for ws := p.written.words; ws != 0; {
		w := uint32(bits.TrailingZeros64(ws))
		m := mask[w]
		if m == fullWord {
			end := w + 1
			for end < maskWords && mask[end] == fullWord {
				end++
			}
			copy(dst[w*64:end*64], src[w*64:end*64])
			ws &^= 1<<end - 1 // words below end are done; 1<<64 is 0, so end == 64 clears them all
			continue
		}
		ws &= ws - 1
		// Eight bytes at a time, from the first group with a written byte in it
		// (a sparse patch's only one, usually) to the last.
		b := uint32(bits.TrailingZeros64(m)) &^ 7
		for m, b = m>>b, w*64+b; m != 0; m, b = m>>8, b+8 {
			if m&0xff == 0 {
				continue
			}
			// Bit k of the low byte of m → byte k of sel all ones: spread the
			// eight bits one to a byte, then widen each non-zero byte to 0xff.
			sel := ((m & 0xff) * 0x0101010101010101) & 0x8040201008040201
			sel = (((sel + 0x7f7f7f7f7f7f7f7f) & 0x8080808080808080) >> 7) * 0xff
			d, s := dst[b:b+8], src[b:b+8]
			binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)&^sel|binary.LittleEndian.Uint64(s)&sel)
		}
	}
}

// AddRunsByPage absorbs runs, in order, into per-page patches, splitting the
// ones that straddle a page boundary. patchFor resolves the patch of a page;
// consecutive runs overwhelmingly hit the same page (slice-end diffing emits
// them in address order), so it is asked only when the page changes.
func AddRunsByPage(runs []Run, patchFor func(PageID) *PagePatch) {
	var lastID PageID
	var last *PagePatch
	for _, r := range runs {
		a, data := r.Addr, r.Data
		for len(data) > 0 {
			id := PageOf(a)
			n := min(len(data), PageSize-int(a&PageMask))
			if last == nil || id != lastID {
				lastID, last = id, patchFor(id)
			}
			last.AddRun(Run{Addr: a, Data: data[:n:n]})
			a += uint64(n)
			data = data[n:]
		}
	}
}

// ApplyPatch writes the patch's unique bytes into the space in a single
// pass, taking no fault, exactly like ApplyRuns (the writes are
// propagated remote modifications, §4.3). The page is the space's own after
// writablePage's copy-on-write, and the space the applying thread's or a
// provably blocked one's: nobody reads it under mergeInto's write-back.
func (s *Space) ApplyPatch(p *PagePatch) {
	p.mergeInto(s.writablePage(p.page).Data[:])
}

// WritePlan is the collapsed form of an ordered modification-list sequence.
// It holds the per-page last-writer-wins images directly in the patches'
// staging buffers — applying a plan copies each unique byte straight from
// the staging buffer into the target page, with no intermediate
// materialization. Once built a plan is read-only; call Release once it has
// been applied.
//
// A plan is live from BuildPlan until Release. A released plan is dead: it
// sits in planPool or has been re-issued as somebody else's plan, so no field
// may be read and no method called. Read what you need first.
type WritePlan struct {
	// Patches holds the per-page images in ascending PageID order. They
	// write disjoint bytes, so application order is irrelevant.
	Patches []*PagePatch
	// InputRuns/InputBytes describe the uncoalesced input.
	InputRuns  uint64
	InputBytes uint64
	// UniqueBytes is the number of distinct destination bytes the plan
	// writes; InputBytes - UniqueBytes were coalesced away.
	UniqueBytes uint64

	// byPage indexes Patches while the plan is being built and is empty at
	// every other time.
	byPage map[PageID]*PagePatch
	dead   bool
}

// planPool recycles released plans with byPage's buckets and Patches' array.
var planPool = sync.Pool{New: func() any { return &WritePlan{byPage: make(map[PageID]*PagePatch)} }}

// BuildPlan collapses ordered modification lists (the Mods of an ordered
// slice list, §4.3) into a per-page last-writer-wins plan. Runs straddling
// page boundaries are split.
func BuildPlan(mods [][]Run) *WritePlan {
	return BuildPlanFunc(len(mods), func(i int) []Run { return mods[i] })
}

// BuildPlanFunc is BuildPlan over the n lists modsOf(0) … modsOf(n-1): lists
// that sit inside other values (the runtime's slices) are read in place.
func BuildPlanFunc(n int, modsOf func(i int) []Run) *WritePlan {
	plan := planPool.Get().(*WritePlan)
	plan.dead = false
	patchFor := func(id PageID) *PagePatch {
		p := plan.byPage[id]
		if p == nil {
			p = NewPagePatch(id)
			plan.byPage[id] = p
			plan.Patches = append(plan.Patches, p)
		}
		return p
	}
	for i := 0; i < n; i++ {
		runs := modsOf(i)
		plan.InputRuns += uint64(len(runs))
		plan.InputBytes += RunBytes(runs)
		AddRunsByPage(runs, patchFor)
	}
	clear(plan.byPage)
	slices.SortFunc(plan.Patches, func(a, b *PagePatch) int { return cmp.Compare(a.page, b.page) })
	for _, p := range plan.Patches {
		plan.UniqueBytes += p.UniqueBytes()
	}
	return plan
}

// Release gives every patch, and the plan itself, back for reuse; the plan
// is dead afterwards. Releasing a dead plan panics, like releasing a dead
// patch.
func (p *WritePlan) Release() {
	if p.dead {
		panic("mem: WritePlan released twice")
	}
	for _, pp := range p.Patches {
		pp.Release()
	}
	clear(p.Patches)
	*p = WritePlan{Patches: p.Patches[:0], byPage: p.byPage, dead: true}
	planPool.Put(p)
}

// ApplyPlan writes the plan into the space, each destination byte exactly
// once, straight from the staging buffers. Like ApplyRuns it takes no fault:
// plans carry propagated remote modifications, which must
// not be monitored as local ones (§4.3).
func (s *Space) ApplyPlan(p *WritePlan) {
	for _, pp := range p.Patches {
		s.ApplyPatch(pp)
	}
}
