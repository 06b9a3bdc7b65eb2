// Package mem implements the simulated paged address space that substitutes
// for the paper's clone()-separated process memories (paper §4, Figure 3). It
// is the address space of all three runtimes: each RFDet thread's, each
// DThreads view and its global store, and the pthreads baseline's one shared
// memory, which its threads access under a mutex.
//
// Each logical thread owns a Space: a sparse page table over a shared virtual
// address range. Cloning a Space (thread creation, §4.1) shares pages
// copy-on-write, so the child inherits the parent's memory exactly as a
// cloned process would. A page takes a simulated fault — the paper's SIGSEGV
// after mprotect — for one of two reasons: with dirty tracking on, a store to
// a page the slice has no record of (the one place every monitor snapshots,
// §4.2), and any access to a page with pended lazy writes (§4.5, pending.go),
// which the handler flushes. The mprotect sweeps themselves are charges the
// runtimes model; no page carries a protection.
//
// All methods of a Space must be called only by its owning thread (for
// pthreads' shared memory, whoever holds its mutex), mirroring the paper's
// design where a process touches only its own address space; pages
// themselves are immutable while shared (copy-on-write), so concurrent
// readers of a shared page never race with a writer.
package mem

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sync/atomic"
)

const (
	// PageShift is log2 of the page size.
	PageShift = 12
	// PageSize is the simulated page size in bytes (4 KiB, as on the
	// paper's x86-64 testbed).
	PageSize = 1 << PageShift
	// PageMask extracts the offset within a page.
	PageMask = PageSize - 1
)

// PageID identifies a page: address >> PageShift.
type PageID uint64

// PageOf returns the page containing address a.
func PageOf(a uint64) PageID { return PageID(a >> PageShift) }

// PageAddr returns the first address of page p.
func PageAddr(p PageID) uint64 { return uint64(p) << PageShift }

// Page is a 4 KiB page with a copy-on-write reference count. A page with
// refs > 1 is immutable; writers must copy it first.
type Page struct {
	refs int32
	Data [PageSize]byte
}

// NewPage returns a fresh zeroed page with one reference.
func NewPage() *Page { return &Page{refs: 1} }

// Ref increments the reference count (the page becomes shared).
func (p *Page) Ref() { atomic.AddInt32(&p.refs, 1) }

// Unref decrements the reference count.
func (p *Page) Unref() { atomic.AddInt32(&p.refs, -1) }

// Shared reports whether the page is referenced by more than one space.
func (p *Page) Shared() bool { return atomic.LoadInt32(&p.refs) > 1 }

// FaultHandler is invoked when an access reaches a page with pended runs
// (Pend), and when a tracked store is the slice's first to a page
// (SetDirtyTracking), before the access proceeds. It stands in for the
// SIGSEGV handler of the paper's implementation. The handler typically
// flushes the page (FlushPending) or snapshots it (SnapshotPage) via the
// Space it closed over; the access then proceeds without asking again, as a
// faulting instruction restarts after mprotect in the real system.
type FaultHandler func(p PageID, write bool)

// pageCacheSize is the slot count of a Space's direct-mapped page cache. One
// slot thrashes on matmul, which alternates between an A page and a B page;
// Space is 4,728 bytes in the 4,864-byte size class: three more slots fit.
const pageCacheSize = 16

// pageSlot is what an access asks about page id, so that a hit consults no
// map; a nil p marks it empty. Whoever changes a fact updates the slot: p is
// pages[id] (writablePage, Release), pend is pended[id] (Pend, FlushPending),
// d is dirty[id] once a store has asked for it, else nil (record, recordOf,
// ResetDirty). A fill reads the first two; loads never need the third.
type pageSlot struct {
	id   PageID
	p    *Page
	d    *dirtyPage
	pend *PendingPage
}

// Space is one thread's private view of the shared address range.
type Space struct {
	pages map[PageID]*Page
	// cache[id%pageCacheSize] describes page id or is empty. It holds the page
	// pointer, not its sharing — a store still tests Shared — so Clone leaves
	// it alone, and never &zero. Only the owner touches it, or a turn holder
	// acting for a provably blocked owner (a waker's pre-merge pends onto the
	// peer's pages), as with pended. PageData goes round it.
	cache [pageCacheSize]pageSlot
	// pended holds the lazy-writes records (pending.go): a page with one
	// faults on any access until FlushPending. Nil until the first Pend.
	pended map[PageID]*PendingPage
	// onFault handles simulated faults; nil means nothing faults, as in
	// DThreads' global store or a thread before it monitors.
	onFault FaultHandler
	// zero is returned for reads of unmapped pages.
	zero Page

	// The slice's page records (dirty.go): one per page written or snapshotted
	// while trackDirty is set, in first-touch order, reset at slice end; the
	// slot of a page being stored to holds its record.
	trackDirty bool
	dirty      map[PageID]*dirtyPage
	dirtyOrder []PageID

	// Per-slice read-set tracking (reads.go): per-page loaded-byte masks,
	// recorded on every load while trackReads is set (race detection only)
	// and reset at slice end. The last page read is kept at hand, so a loop
	// over one page skips the map.
	trackReads bool
	reads      map[PageID]*readSet
	readOrder  []PageID
	lastReadID PageID
	lastRead   *readSet
}

// NewSpace returns an empty address space.
func NewSpace() *Space {
	return &Space{pages: make(map[PageID]*Page)}
}

// SetFaultHandler installs the simulated SIGSEGV handler.
func (s *Space) SetFaultHandler(h FaultHandler) { s.onFault = h }

// Clone returns a copy-on-write duplicate of s, as a child process would
// inherit its parent's memory through clone() (§4.1). Neither pended runs nor
// dirty-tracking state is inherited; the child starts with nothing pended and
// tracking off (the runtime re-enables it when the owning thread starts
// monitoring).
func (s *Space) Clone() *Space {
	c := NewSpace()
	//detvet:orderfree per-page Ref+insert into a fresh map commutes; see TestCloneOrderFree.
	for id, p := range s.pages {
		p.Ref()
		c.pages[id] = p
	}
	c.onFault = nil
	return c
}

// Release drops all page references held by s, and hands back any snapshot
// a page record still holds; pended runs are dropped unapplied. The space
// must not be used afterwards.
func (s *Space) Release() {
	//detvet:orderfree per-page Unref+delete commutes; the map is discarded afterwards.
	for id, p := range s.pages {
		p.Unref()
		delete(s.pages, id)
	}
	s.ResetDirty()
	clear(s.pended)
	clear(s.cache[:])
}

// CacheConsistent reports whether every cache slot agrees with the tables
// (Options.Validate asks at each slice end; no access pays for it).
func (s *Space) CacheConsistent() bool {
	for _, c := range s.cache {
		if c.p != nil && (c.p != s.pages[c.id] || c.pend != s.pended[c.id] || c.d != nil && c.d != s.dirty[c.id]) {
			return false
		}
	}
	return true
}

// ResidentBytes returns the resident size of this space in bytes.
func (s *Space) ResidentBytes() uint64 { return uint64(len(s.pages)) * PageSize }

// Pages calls fn for each resident page in ascending PageID order.
func (s *Space) Pages(fn func(PageID, *Page)) {
	ids := make([]PageID, 0, len(s.pages))
	for id := range s.pages {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		fn(id, s.pages[id])
	}
}

// readPage returns the page for reading, faults aside; unmapped reads as zeros.
func (s *Space) readPage(id PageID) *Page {
	c := &s.cache[id%pageCacheSize]
	if c.id == id && c.p != nil {
		return c.p
	}
	if p, ok := s.pages[id]; ok {
		*c = pageSlot{id: id, p: p, pend: s.pended[id]}
		return p
	}
	return &s.zero
}

// loadPage returns the page a load reads, after any fault it takes; a slot
// that allows the load is the whole answer.
func (s *Space) loadPage(id PageID) *Page {
	if c := &s.cache[id%pageCacheSize]; c.id == id && c.p != nil && c.pend == nil {
		return c.p
	}
	s.checkFault(id, false)
	return s.readPage(id)
}

// Loadable returns the page an n-byte load at a reads when its slot alone
// answers it, else nil: the slot holds the page, nothing is pended on it, no
// read is being recorded, and the bytes do not straddle into the next page. That is loadPage's hit with nothing around it,
// so the caller reads the bytes itself; it must stay inlinable (verify.sh).
func (s *Space) Loadable(a, n uint64) *[PageSize]byte {
	if c := &s.cache[PageOf(a)%pageCacheSize]; c.id == PageOf(a) && c.p != nil && c.pend == nil && !s.trackReads && a&PageMask <= PageSize-n {
		return &c.p.Data
	}
	return nil
}

// storePage returns the page a store writes in place, after any pended-page
// fault it takes; a slot with nothing pended, over an unshared page, is the
// whole answer. The write fault is storeRecord's.
func (s *Space) storePage(id PageID) *Page {
	if c := &s.cache[id%pageCacheSize]; c.id == id && c.p != nil && c.pend == nil && !c.p.Shared() {
		return c.p
	}
	s.checkFault(id, true)
	return s.writablePage(id)
}

// writablePage returns a page that may be written in place, faults aside,
// copying it first if it is shared or absent, and leaves it in its slot.
func (s *Space) writablePage(id PageID) *Page {
	c := &s.cache[id%pageCacheSize]
	if c.id == id && c.p != nil && !c.p.Shared() {
		return c.p
	}
	p, ok := s.pages[id]
	if !ok {
		p = NewPage()
		s.pages[id] = p
	} else if p.Shared() {
		np := NewPage()
		np.Data = p.Data
		p.Unref()
		p = np
		s.pages[id] = p
	}
	*c = pageSlot{id: id, p: p, pend: s.pended[id]}
	return p
}

// checkFault fires the fault handler if page id has pended runs. The handler
// is expected to flush them; the access then proceeds.
func (s *Space) checkFault(id PageID, write bool) {
	if s.onFault != nil && s.pended[id] != nil {
		s.onFault(id, write)
	}
}

// Load8 reads one byte.
func (s *Space) Load8(a uint64) uint8 {
	id := PageOf(a)
	if s.trackReads {
		s.markRead(id, uint32(a&PageMask), 1)
	}
	return s.loadPage(id).Data[a&PageMask]
}

// Store8 writes one byte.
func (s *Space) Store8(a uint64, v uint8) {
	id := PageOf(a)
	p := s.storePage(id)
	if s.trackDirty {
		s.storeRecord(id).mark(&p.Data, uint32(a&PageMask), 1)
	}
	p.Data[a&PageMask] = v
}

// Load32 reads a little-endian uint32 (may straddle a page boundary).
func (s *Space) Load32(a uint64) uint32 {
	if a&PageMask <= PageSize-4 {
		id := PageOf(a)
		if s.trackReads {
			s.markRead(id, uint32(a&PageMask), 4)
		}
		return binary.LittleEndian.Uint32(s.loadPage(id).Data[a&PageMask:])
	}
	var buf [4]byte
	s.ReadBytes(a, buf[:])
	return binary.LittleEndian.Uint32(buf[:])
}

// Store32 writes a little-endian uint32 (may straddle a page boundary).
func (s *Space) Store32(a uint64, v uint32) {
	if a&PageMask <= PageSize-4 {
		id := PageOf(a)
		p := s.storePage(id)
		if s.trackDirty {
			s.storeRecord(id).mark(&p.Data, uint32(a&PageMask), 4)
		}
		binary.LittleEndian.PutUint32(p.Data[a&PageMask:], v)
		return
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	s.WriteBytes(a, buf[:])
}

// Load64 reads a little-endian uint64 (may straddle a page boundary).
func (s *Space) Load64(a uint64) uint64 {
	if a&PageMask <= PageSize-8 {
		id := PageOf(a)
		if s.trackReads {
			s.markRead(id, uint32(a&PageMask), 8)
		}
		return binary.LittleEndian.Uint64(s.loadPage(id).Data[a&PageMask:])
	}
	var buf [8]byte
	s.ReadBytes(a, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// Store64 writes a little-endian uint64 (may straddle a page boundary).
func (s *Space) Store64(a uint64, v uint64) {
	if a&PageMask <= PageSize-8 {
		id := PageOf(a)
		p := s.storePage(id)
		if s.trackDirty {
			s.storeRecord(id).mark(&p.Data, uint32(a&PageMask), 8)
		}
		binary.LittleEndian.PutUint64(p.Data[a&PageMask:], v)
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	s.WriteBytes(a, buf[:])
}

// ReadBytes fills buf from memory starting at a.
func (s *Space) ReadBytes(a uint64, buf []byte) {
	for len(buf) > 0 {
		id := PageOf(a)
		off := a & PageMask
		n := copy(buf, s.loadPage(id).Data[off:])
		if s.trackReads {
			s.markRead(id, uint32(off), uint32(n))
		}
		buf = buf[n:]
		a += uint64(n)
	}
}

// WriteBytes copies data into memory starting at a.
func (s *Space) WriteBytes(a uint64, data []byte) {
	for len(data) > 0 {
		id := PageOf(a)
		off := a & PageMask
		p := s.storePage(id)
		n := min(len(data), PageSize-int(off))
		if s.trackDirty {
			s.storeRecord(id).mark(&p.Data, uint32(off), uint32(n))
		}
		copy(p.Data[off:], data)
		data = data[n:]
		a += uint64(n)
	}
}

// Snapshot returns a copy of page id's current contents: a whole-page
// snapshot. No runtime takes one — every monitor's is SnapshotPage's, filled
// a chunk at a time — so it serves tests and the frozen benchmark's
// first-touch driver. The buffer comes from the page-buffer pool; callers
// that control its lifetime should hand it back with PutPageBuf (a
// never-returned buffer is merely garbage-collected).
func (s *Space) Snapshot(id PageID) []byte {
	snap := GetPageBuf()
	copy(snap, s.readPage(id).Data[:])
	return snap
}

// PageData returns the current contents of page id for read-only use (the
// returned slice aliases the live page; do not retain it across writes). It
// is the read-only lookup — dthreads and the owner's slice-end diff call it —
// and reads the table without filling the cache.
func (s *Space) PageData(id PageID) []byte {
	if p, ok := s.pages[id]; ok {
		return p.Data[:]
	}
	return s.zero.Data[:]
}

// Hash folds every resident page into a 64-bit FNV digest, in ascending page
// order. Zero pages that were never mapped do not contribute; a mapped page
// that holds zeros does, so the digest is a deterministic function of the
// store history.
func (s *Space) Hash() uint64 {
	h := fnv.New64a()
	var idbuf [8]byte
	s.Pages(func(id PageID, p *Page) {
		binary.LittleEndian.PutUint64(idbuf[:], uint64(id))
		h.Write(idbuf[:])
		h.Write(p.Data[:])
	})
	return h.Sum64()
}

// String summarizes the space for debugging.
func (s *Space) String() string {
	return fmt.Sprintf("Space{pages: %d, resident: %d B}", len(s.pages), s.ResidentBytes())
}
