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
// The collapse is a pure function of the run list, so a plan built once can
// be applied to any number of spaces (plan sharing across blocked waiters)
// and is exactly equivalent to sequential list-order application: both leave
// every covered byte at its last writer's value and touch no other byte, and
// no one can observe the intermediate states (the applying thread is between
// slices, or provably blocked under the monitor).
//
// Plans are built with the same interval-coalescing machinery as the
// sub-page dirty tracker (insertExtent, dirty.go) — but, unlike dirtyPage,
// a PagePatch never degrades to the chunk bitmap: a plan's extents must be
// *exactly* the written bytes, never a superset, because the staging buffer
// holds garbage outside them.

import (
	"sort"
	"sync"
	"sync/atomic"
)

// pageBufPool recycles page-sized staging buffers: plan construction, lazy
// pending patches and page snapshots each need a scratch 4 KiB buffer per
// touched page, and allocating one per first-touch per slice is measurable
// on snapshot-heavy workloads. It is the page-granular sibling of the
// slicestore's arena chunk pool: both recycle fixed-size payload buffers
// with a poison-on-free test hook, but staging buffers have per-buffer
// lifetimes (Release at patch teardown) rather than per-segment ones, so a
// per-P sync.Pool fits them where a bump arena would not.
var (
	pageBufPool   = sync.Pool{New: func() any { pageBufNews.Add(1); return new([PageSize]byte) }}
	pageBufGets   atomic.Uint64
	pageBufNews   atomic.Uint64
	pageBufPoison atomic.Bool
)

// GetPageBuf returns a page-sized buffer from the pool. Its contents are
// unspecified; callers must not read bytes they have not written.
func GetPageBuf() []byte {
	pageBufGets.Add(1)
	return pageBufPool.Get().(*[PageSize]byte)[:]
}

// PutPageBuf returns a buffer obtained from GetPageBuf (or Space.Snapshot)
// to the pool. The caller must not retain the buffer afterwards. Buffers of
// any other length are dropped on the floor. With poisoning enabled
// (SetPageBufPoison, tests only) the buffer is overwritten first, so a
// retained alias reads garbage loudly instead of a stale snapshot.
func PutPageBuf(b []byte) {
	if len(b) != PageSize {
		return
	}
	if pageBufPoison.Load() {
		for i := range b {
			b[i] = 0xDB
		}
	}
	pageBufPool.Put((*[PageSize]byte)(b))
}

// SetPageBufPoison toggles poison-on-free for the staging-buffer pool (test
// hook; off by default).
func SetPageBufPoison(on bool) { pageBufPoison.Store(on) }

// PageBufStats returns (total gets, fresh allocations) of the staging-buffer
// pool; gets minus news is the number of reuses. Counters are global and
// monotone — benchmark deltas, not per-run gauges.
func PageBufStats() (gets, news uint64) { return pageBufGets.Load(), pageBufNews.Load() }

// PagePatch accumulates last-writer-wins writes to a single page: later
// AddRun calls overwrite earlier ones byte-for-byte, and the extent list
// records exactly which bytes have been written. It backs both plan
// construction and the lazy-writes pending state (a hot page absorbs any
// number of propagated updates and flushes in one pass).
type PagePatch struct {
	page PageID
	buf  []byte // pooled staging buffer; valid only inside exts
	// exts is sorted, coalesced, gap-separated and — unlike the dirty
	// tracker — always precise: exactly the written bytes.
	exts []Extent
	// rawRuns/rawBytes count the absorbed input, before deduplication.
	rawRuns  uint64
	rawBytes uint64
}

// NewPagePatch returns an empty patch for page id, holding a pooled buffer;
// call Release when done with it.
func NewPagePatch(id PageID) *PagePatch {
	return &PagePatch{page: id, buf: GetPageBuf()}
}

// Page returns the page the patch targets.
func (p *PagePatch) Page() PageID { return p.page }

// AddRun absorbs a run, which must lie entirely within the patch's page.
// Later runs overwrite earlier ones on overlapping bytes.
func (p *PagePatch) AddRun(r Run) {
	if len(r.Data) == 0 {
		return
	}
	off := uint32(r.Addr & PageMask)
	copy(p.buf[off:], r.Data)
	p.exts = insertExtent(p.exts, off, uint32(len(r.Data)))
	p.rawRuns++
	p.rawBytes += uint64(len(r.Data))
}

// UniqueBytes returns the number of distinct bytes written so far.
func (p *PagePatch) UniqueBytes() uint64 { return ExtentBytes(p.exts) }

// RawRuns returns the number of runs absorbed.
func (p *PagePatch) RawRuns() uint64 { return p.rawRuns }

// RawBytes returns the total input bytes absorbed, counting overwrites.
func (p *PagePatch) RawBytes() uint64 { return p.rawBytes }

// Runs materializes the patch as freshly allocated, address-sorted,
// gap-separated, mutually disjoint runs. The result does not alias the
// pooled buffer and stays valid after Release.
func (p *PagePatch) Runs() []Run {
	if len(p.exts) == 0 {
		return nil
	}
	base := PageAddr(p.page)
	// One backing array for all runs: fragmented pages (thousands of tiny
	// extents) would otherwise cost one allocation per extent.
	backing := make([]byte, ExtentBytes(p.exts))
	runs := make([]Run, 0, len(p.exts))
	for _, e := range p.exts {
		data := backing[:e.Len:e.Len]
		backing = backing[e.Len:]
		copy(data, p.buf[e.Off:e.End()])
		runs = append(runs, Run{Addr: base + uint64(e.Off), Data: data})
	}
	return runs
}

// Release returns the staging buffer to the pool. The patch must not be
// used afterwards.
func (p *PagePatch) Release() {
	PutPageBuf(p.buf)
	p.buf = nil
	p.exts = nil
}

// ForEachRun calls fn with each of the patch's runs in address order. The
// run data aliases the staging buffer and stays valid only until Release;
// fn must copy anything it keeps.
func (p *PagePatch) ForEachRun(fn func(Run)) {
	base := PageAddr(p.page)
	for _, e := range p.exts {
		fn(Run{Addr: base + uint64(e.Off), Data: p.buf[e.Off:e.End():e.End()]})
	}
}

// ApplyPatch writes the patch's unique bytes into the space in a single
// pass, bypassing protection faults exactly like ApplyRuns (the writes are
// propagated remote modifications, §4.3).
func (s *Space) ApplyPatch(p *PagePatch) {
	ApplyPatchData(s.writablePage(p.page).Data[:], p)
}

// WritePlan is the collapsed form of an ordered modification-list sequence.
// It holds the per-page last-writer-wins images directly in the patches'
// pooled staging buffers — applying a plan copies each unique byte straight
// from the staging buffer into the target page, with no intermediate
// materialization. Once built a plan is read-only and safe to apply to any
// number of spaces from any goroutine (applications to distinct spaces never
// share state); call Release when no application can still be in flight.
type WritePlan struct {
	// Patches holds the per-page images in ascending PageID order. Their
	// extents are mutually disjoint, so application order is irrelevant.
	Patches []*PagePatch
	// InputRuns/InputBytes describe the uncoalesced input.
	InputRuns  uint64
	InputBytes uint64
	// UniqueBytes is the number of distinct destination bytes the plan
	// writes; InputBytes - UniqueBytes were coalesced away.
	UniqueBytes uint64
}

// BuildPlan collapses ordered modification lists (the Mods of an ordered
// slice list, §4.3) into a per-page last-writer-wins plan. Runs straddling
// page boundaries are split, exactly as SplitRunsByPage splits them.
func BuildPlan(mods [][]Run) *WritePlan {
	plan := &WritePlan{}
	patches := make(map[PageID]*PagePatch)
	// Consecutive runs overwhelmingly hit the same page (slice-end diffing
	// emits them in address order), so a one-entry cache in front of the map
	// removes a lookup per run.
	var lastID PageID
	var last *PagePatch
	for _, runs := range mods {
		for _, r := range runs {
			plan.InputRuns++
			plan.InputBytes += uint64(len(r.Data))
			a, data := r.Addr, r.Data
			for len(data) > 0 {
				id := PageOf(a)
				room := PageSize - int(a&PageMask)
				n := len(data)
				if n > room {
					n = room
				}
				p := last
				if p == nil || id != lastID {
					p = patches[id]
					if p == nil {
						p = NewPagePatch(id)
						patches[id] = p
					}
					lastID, last = id, p
				}
				p.AddRun(Run{Addr: a, Data: data[:n:n]})
				a += uint64(n)
				data = data[n:]
			}
		}
	}
	plan.Patches = make([]*PagePatch, 0, len(patches))
	//detvet:orderfree Patches are sorted by page right below; UniqueBytes is a commutative sum.
	for _, p := range patches {
		plan.Patches = append(plan.Patches, p)
		plan.UniqueBytes += p.UniqueBytes()
	}
	sort.Slice(plan.Patches, func(i, j int) bool {
		return plan.Patches[i].page < plan.Patches[j].page
	})
	return plan
}

// Release returns every patch's staging buffer to the pool. The plan must
// not be applied afterwards. Callers that share a plan across waiters call
// this once, after the last application.
func (p *WritePlan) Release() {
	for _, pp := range p.Patches {
		pp.Release()
	}
	p.Patches = nil
}

// ApplyPlan writes the plan into the space, each destination byte exactly
// once, straight from the staging buffers. Like ApplyRuns it bypasses
// protection faults: plans carry propagated remote modifications, which must
// not be monitored as local ones (§4.3).
func (s *Space) ApplyPlan(p *WritePlan) {
	for _, pp := range p.Patches {
		s.ApplyPatch(pp)
	}
}

// ApplyPatchData copies a patch's unique bytes into page data that the
// caller has already resolved for writing. Split out from Space.ApplyPatch
// so callers can resolve the writable pages first (the page table is
// single-threaded) and fan the disjoint copies out to a worker pool.
func ApplyPatchData(data []byte, p *PagePatch) {
	for _, e := range p.exts {
		copy(data[e.Off:e.End()], p.buf[e.Off:e.End()])
	}
}

// WritablePageData resolves page id for in-place writing — performing the
// copy-on-write if needed — and returns the live page data. Intended for
// plan application only: writes through it bypass both protection faults and
// dirty tracking, exactly like ApplyRuns.
func (s *Space) WritablePageData(id PageID) []byte {
	return s.writablePage(id).Data[:]
}
