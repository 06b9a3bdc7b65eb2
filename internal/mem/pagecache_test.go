package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// A Space against the obvious model of one: a page table, a table of pended
// runs and per-page written- and loaded-byte sets that are maps and nothing
// else, with
// copy-on-write sharing counted per page. The Space puts a direct-mapped cache
// in front of its tables, each slot carrying the page, its pended record and
// the slice's record of it; the model stays here as the reference whatever
// the Space's lookup becomes.

type modelPage struct {
	refs int
	data [PageSize]byte
}

// fault is one firing of the fault handler.
type fault struct {
	id    PageID
	write bool
}

type modelSpace struct {
	pages  map[PageID]*modelPage
	pended map[PageID][]Run // in pend order, cut at page boundaries
	faults []fault          // what the handler must have been called with, in order

	// The slice's records, while tracking: pages in first-touch order, the
	// bytes written since the last reset, the snapshots.
	tracking bool
	order    []PageID
	written  map[PageID]*[PageSize]bool
	snaps    map[PageID]*modelSnap

	// The slice's read sets, while read tracking: pages in first-load order,
	// the bytes loaded.
	readTracking bool
	readOrder    []PageID
	loaded       map[PageID]*[PageSize]bool
}

// modelSnap is a slice's snapshot of a page: the chunks copied so far, each
// the page as it stood just before the slice's first store to it — and, from
// the store that takes it past denseChunks, the rest of the page as that
// store found it.
type modelSnap struct {
	data   [PageSize]byte
	copied [PageSize / ChunkSize]bool
}

func newModelSpace() *modelSpace {
	return &modelSpace{
		pages:   map[PageID]*modelPage{},
		pended:  map[PageID][]Run{},
		written: map[PageID]*[PageSize]bool{},
		snaps:   map[PageID]*modelSnap{},
		loaded:  map[PageID]*[PageSize]bool{},
	}
}

// clone shares the pages; pended runs and records are not inherited.
func (m *modelSpace) clone() *modelSpace {
	c := newModelSpace()
	for id, p := range m.pages {
		p.refs++
		c.pages[id] = p
	}
	return c
}

func (m *modelSpace) release() {
	for id, p := range m.pages {
		p.refs--
		delete(m.pages, id)
	}
	clear(m.pended)
}

// pend cuts the run at page boundaries and pends each piece on its page.
func (m *modelSpace) pend(r Run) {
	for len(r.Data) > 0 {
		n := min(len(r.Data), PageSize-int(r.Addr&PageMask))
		id := PageOf(r.Addr)
		m.pended[id] = append(m.pended[id], Run{Addr: r.Addr, Data: r.Data[:n]})
		r = Run{Addr: r.Addr + uint64(n), Data: r.Data[n:]}
	}
}

// flush settles page id's pended runs — writes them in pend order, if apply —
// and returns FlushPending's counts: runs, bytes and distinct bytes.
func (m *modelSpace) flush(id PageID, apply bool) (runs, raw, distinct uint64) {
	var written [PageSize]bool
	for _, r := range m.pended[id] {
		runs, raw = runs+1, raw+uint64(len(r.Data))
		for i := range r.Data {
			written[int(r.Addr&PageMask)+i] = true
		}
		if apply {
			m.poke(r.Addr, r.Data)
		}
	}
	for _, w := range written {
		if w {
			distinct++
		}
	}
	delete(m.pended, id)
	return runs, raw, distinct
}

// access takes the faults of an n-byte access at a, a page at a time: a page
// with pended runs faults, and the handler flushes it, as the runtime's does;
// while tracking, a store's first to a page the slice has no record of faults
// then (the write fault).
func (m *modelSpace) access(a uint64, n int, write bool) {
	for id := PageOf(a); n > 0 && id <= PageOf(a+uint64(n)-1); id++ {
		if _, ok := m.pended[id]; ok {
			m.faults = append(m.faults, fault{id, write})
			m.flush(id, true)
		}
		if write && m.tracking && !slices.Contains(m.order, id) {
			m.faults = append(m.faults, fault{id, true})
		}
	}
}

func (m *modelSpace) read(a uint64, buf []byte) {
	m.access(a, len(buf), false)
	m.peek(a, buf)
	if m.readTracking {
		mark(&m.readOrder, m.loaded, a, len(buf))
	}
}

// mark records the n bytes at a in a per-page byte set, starting a page's set
// in order at its first byte.
func mark(order *[]PageID, set map[PageID]*[PageSize]bool, a uint64, n int) {
	for i := range n {
		id := PageOf(a + uint64(i))
		if set[id] == nil {
			set[id] = new([PageSize]bool)
			if !slices.Contains(*order, id) {
				*order = append(*order, id)
			}
		}
		set[id][(a+uint64(i))&PageMask] = true
	}
}

func (m *modelSpace) resetReads() {
	m.readOrder = nil
	clear(m.loaded)
}

// peek reads past the pended runs, as Snapshot and PageData do.
func (m *modelSpace) peek(a uint64, buf []byte) {
	for i := range buf {
		buf[i] = 0
		if p, ok := m.pages[PageOf(a+uint64(i))]; ok {
			buf[i] = p.data[(a+uint64(i))&PageMask]
		}
	}
}

// touch starts page id's record if the slice has none.
func (m *modelSpace) touch(id PageID) {
	if !slices.Contains(m.order, id) {
		m.order = append(m.order, id)
	}
}

// snapshot is the monitor's, taken before the slice's first store to the
// page: it holds no chunk yet.
func (m *modelSpace) snapshot(id PageID) {
	m.touch(id)
	m.snaps[id] = new(modelSnap)
}

// copyChunks is what a store of n bytes at a does to the snapshots of the
// pages it writes, before it writes them.
func (m *modelSpace) copyChunks(a uint64, n int) {
	for id := PageOf(a); n > 0 && id <= PageOf(a+uint64(n)-1); id++ {
		snap := m.snaps[id]
		if snap == nil {
			continue
		}
		var page [PageSize]byte
		m.peek(PageAddr(id), page[:])
		take := func(c uint64) {
			if !snap.copied[c] {
				snap.copied[c] = true
				copy(snap.data[c*ChunkSize:(c+1)*ChunkSize], page[c*ChunkSize:])
			}
		}
		lo, hi := max(a, PageAddr(id)), min(a+uint64(n), PageAddr(id+1))
		for c := lo & PageMask / ChunkSize; c <= (hi-1)&PageMask/ChunkSize; c++ {
			take(c)
		}
		held := 0
		for _, ok := range snap.copied {
			if ok {
				held++
			}
		}
		if held > denseChunks {
			for c := range snap.copied {
				take(uint64(c))
			}
		}
	}
}

func (m *modelSpace) resetDirty() {
	m.order = nil
	clear(m.written)
	clear(m.snaps)
}

func (m *modelSpace) write(a uint64, data []byte) {
	m.access(a, len(data), true)
	if !m.tracking {
		m.poke(a, data)
		return
	}
	m.copyChunks(a, len(data))
	m.poke(a, data)
	mark(&m.order, m.written, a, len(data))
}

// poke writes past pended runs and records, as a propagated update does.
func (m *modelSpace) poke(a uint64, data []byte) {
	for i, b := range data {
		id := PageOf(a + uint64(i))
		p, ok := m.pages[id]
		switch {
		case !ok:
			p = &modelPage{refs: 1}
		case p.refs > 1:
			p.refs--
			p = &modelPage{refs: 1, data: p.data}
		}
		m.pages[id] = p
		p.data[(a+uint64(i))&PageMask] = b
	}
}

func (m *modelSpace) hash() uint64 {
	ids := make([]PageID, 0, len(m.pages))
	for id := range m.pages {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	h := fnv.New64a()
	var idbuf [8]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint64(idbuf[:], uint64(id))
		h.Write(idbuf[:])
		h.Write(m.pages[id].data[:])
	}
	return h.Sum64()
}

func (m *modelSpace) privateBytes() uint64 {
	var n uint64
	for _, p := range m.pages {
		if p.refs == 1 {
			n += PageSize
		}
	}
	return n
}

// A space program is a sequence of 6-byte operations — kind, slots, page,
// offset (little-endian, two bytes), length — over four slots that each hold
// a Space and its model. slots' low two bits name the slot operated on, the
// next two a source slot. page picks one of sixteen page IDs,
// page%4 + (page/4%4)·pageCacheSize: four cache slots with four pages
// colliding in each.
//
//	kind%19  0 1 2   Load8, Load32, Load64 at the page's offset%PageSize
//	         3 4 5   Store8, Store32, Store64 there (accesses near the end of
//	                 a page straddle into the next)
//	         6 7     ReadBytes, WriteBytes of length·40 bytes (up to three pages)
//	         8       barrier-style replacement: the slot becomes a Clone of the
//	                 source slot, then the old space is Released
//	         9       Release the slot and start it empty
//	         10      Snapshot of the page, then PageData of it
//	         11      ApplyPlan of one run of length·16 bytes, clamped to the page
//	         12      Pend one run of length·16 + 1 bytes there, unclamped: a
//	                 run past the page's end is cut there, and its rest
//	                 pended on the next page; the fault handler flushes a
//	                 pended page, as the runtime's does
//	         13      ApplyRuns of the same run as 11
//	         14      FlushPending of the page, if it is pended: applied
//	                 (length odd) or discarded; the counts are compared
//	         15      FlushPending of every pended page, in PendedPages order,
//	                 applied (length odd) or discarded
//	         16      SetDirtyTracking(length odd), SetReadTracking(length%4 = 3)
//	         17      ResetDirty
//	         18      a monitor's Store64: SnapshotPage of every page of the
//	                 range the slice has no record of, then the store (a plain
//	                 Store64 while tracking is off); the store takes no write
//	                 fault
//
// Every read is compared with the model's, and a load's with what Loadable
// answered before it: a page it hands back must hold the bytes the load read,
// and the load must have taken no fault and recorded no read. The handler's
// calls — which page, load or store, in which order — are compared with the
// faults the model took; after every operation every slot's Hash,
// PrivateBytes, PageCount and PendedPages are compared, every cache is checked
// against its tables, and so are the operated slot's records and read sets:
// the pages in first-touch and first-load order, each page's extents exactly
// the bytes stored or loaded since the last reset, and each snapshot, on
// every chunk that holds a written byte, the page as it was just before that
// chunk's first store — after any apply that landed between the snapshot and
// that store — or as it was when the page went past denseChunks copied
// chunks. A trailing fragment shorter than an operation is ignored.
const spaceOpLen = 6

func spaceOp(kind, slot, src, page byte, off, n int) []byte {
	op := []byte{kind, slot&3 | src&3<<2, page, 0, 0, byte(n)}
	binary.LittleEndian.PutUint16(op[3:], uint16(off))
	return op
}

type spacePair struct {
	s      *Space
	m      *modelSpace
	faults *[]fault // the handler's calls since the last comparison
}

func pairOf(s *Space, m *modelSpace) spacePair {
	sp := spacePair{s, m, new([]fault)}
	s.SetFaultHandler(func(id PageID, write bool) {
		*sp.faults = append(*sp.faults, fault{id, write})
		if s.Pended(id) {
			s.FlushPending(id, true)
		}
	})
	return sp
}

func newSpacePair() spacePair { return pairOf(NewSpace(), newModelSpace()) }

// checkRecords compares the space's page records with the model's.
func (sp spacePair) checkRecords(t *testing.T, where string) {
	t.Helper()
	if got := sp.s.DirtyPages(); !slices.Equal(got, sp.m.order) || len(sp.s.dirty) != len(sp.m.order) {
		t.Fatalf("%s: %d records, of pages %v; model's first-touch order %v", where, len(sp.s.dirty), got, sp.m.order)
	}
	for _, id := range sp.m.order {
		written := sp.m.written[id]
		if written == nil {
			written = new([PageSize]bool) // snapshotted, not yet stored to
		}
		if got, want := sp.s.DirtyExtentsOf(id), extentsOf(written); !slices.Equal(got, want) {
			t.Fatalf("%s: page %d extents %+v, the bytes written %+v", where, id, got, want)
		}
		snap, want := sp.s.SnapshotOf(id), sp.m.snaps[id]
		if (snap == nil) != (want == nil) {
			t.Fatalf("%s: page %d has a snapshot: %v, in the model: %v", where, id, snap != nil, want != nil)
		}
		if want == nil {
			continue
		}
		for c := 0; c < PageSize/ChunkSize; c++ {
			lo, hi := c*ChunkSize, (c+1)*ChunkSize
			if !slices.Contains(written[lo:hi], true) {
				continue
			}
			if !want.copied[c] {
				t.Fatalf("%s: page %d chunk %d was written with no copy in the model's snapshot", where, id, c)
			}
			if !bytes.Equal(snap[lo:hi], want.data[lo:hi]) {
				t.Fatalf("%s: page %d chunk %d of the snapshot is %x, the page before the chunk's first store %x", where, id, c, snap[lo:hi], want.data[lo:hi])
			}
		}
	}
	if got := sp.s.ReadPages(); !slices.Equal(got, sp.m.readOrder) {
		t.Fatalf("%s: read sets of pages %v; model's first-load order %v", where, got, sp.m.readOrder)
	}
	for _, id := range sp.m.readOrder {
		if got, want := sp.s.ReadExtentsOf(id), extentsOf(sp.m.loaded[id]); !slices.Equal(got, want) {
			t.Fatalf("%s: page %d read extents %+v, the bytes loaded %+v", where, id, got, want)
		}
	}
}

// extentsOf returns the runs of a byte set, in address order.
func extentsOf(set *[PageSize]bool) []Extent {
	var exts []Extent
	for b := uint32(0); b < PageSize; b++ {
		switch {
		case !set[b]:
		case b > 0 && set[b-1]:
			exts[len(exts)-1].Len++
		default:
			exts = append(exts, Extent{Off: b, Len: 1})
		}
	}
	return exts
}

func runSpaceProgram(t *testing.T, prog []byte) {
	t.Helper()
	// Pooled buffers come out poisoned, so a snapshot chunk no store copied
	// reads 0xDB, not the zeros the page is likely to hold.
	SetPageBufPoison(true)
	defer SetPageBufPoison(false)
	var slots [4]spacePair
	for i := range slots {
		slots[i] = newSpacePair()
	}
	defer func() {
		for _, sp := range slots {
			sp.s.Release()
		}
	}()
	val := byte(0)
	fill := func(n int) []byte {
		data := make([]byte, n)
		for i := range data {
			if val++; val == 0 {
				val = 1
			}
			data[i] = val
		}
		return data
	}
	for step := 0; len(prog) >= spaceOpLen; step, prog = step+1, prog[spaceOpLen:] {
		kind := prog[0] % 19
		sp, src := &slots[prog[1]&3], &slots[prog[1]>>2&3]
		id := PageID(prog[2]%4) + PageID(prog[2]/4%4)*pageCacheSize
		a := PageAddr(id) + uint64(binary.LittleEndian.Uint16(prog[3:]))%PageSize
		n := int(prog[5])
		where := fmt.Sprintf("step %d (kind %d, page %d)", step, kind, id)
		// inline is what Loadable says the load about to run reads, if it
		// says, and readsBefore the read record then.
		var inline []byte
		var readsBefore string
		if kind <= 2 {
			size := []int{1, 4, 8}[kind]
			if p := sp.s.Loadable(a, uint64(size)); p != nil {
				inline = slices.Clone(p[a&PageMask:][:size])
				readsBefore = fmt.Sprint(sp.s.ReadPages(), sp.s.ReadExtentsOf(id))
			}
		}
		read := func(got []byte) {
			t.Helper()
			want := make([]byte, len(got))
			sp.m.read(a, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: read %d bytes at %#x = %x, model %x", where, len(got), a, got, want)
			}
			if inline == nil {
				return
			}
			if reads := fmt.Sprint(sp.s.ReadPages(), sp.s.ReadExtentsOf(id)); !bytes.Equal(inline, got) ||
				len(*sp.faults) != 0 || len(sp.m.faults) != 0 || reads != readsBefore {
				t.Fatalf("%s: Loadable answered %x at %#x, the load read %x; faults %+v (model %+v); reads %s, before %s",
					where, inline, a, got, *sp.faults, sp.m.faults, reads, readsBefore)
			}
		}
		var buf [8]byte
		switch kind {
		case 0:
			read([]byte{sp.s.Load8(a)})
		case 1:
			binary.LittleEndian.PutUint32(buf[:], sp.s.Load32(a))
			read(buf[:4])
		case 2:
			binary.LittleEndian.PutUint64(buf[:], sp.s.Load64(a))
			read(buf[:8])
		case 3:
			data := fill(1)
			sp.s.Store8(a, data[0])
			sp.m.write(a, data)
		case 4:
			data := fill(4)
			sp.s.Store32(a, binary.LittleEndian.Uint32(data))
			sp.m.write(a, data)
		case 5, 18:
			data := fill(8)
			if kind == 18 && sp.m.tracking {
				for pid := PageOf(a); pid <= PageOf(a+7); pid++ {
					if (sp.s.SnapshotOf(pid) == nil) != (sp.m.snaps[pid] == nil) {
						t.Fatalf("%s: SnapshotOf(%d) = %v, model has one: %v", where, pid, sp.s.SnapshotOf(pid), sp.m.snaps[pid] != nil)
					}
					if !slices.Contains(sp.m.order, pid) {
						sp.s.SnapshotPage(pid)
						sp.m.snapshot(pid)
					}
				}
			}
			sp.s.Store64(a, binary.LittleEndian.Uint64(data))
			sp.m.write(a, data)
		case 6:
			got := make([]byte, n*40)
			sp.s.ReadBytes(a, got)
			read(got)
		case 7:
			data := fill(n * 40)
			sp.s.WriteBytes(a, data)
			sp.m.write(a, data)
		case 8:
			if sp == src {
				continue
			}
			old := *sp
			*sp = pairOf(src.s.Clone(), src.m.clone())
			old.s.Release()
			old.m.release()
		case 9:
			sp.s.Release()
			sp.m.release()
			*sp = newSpacePair()
		case 10:
			snap := sp.s.Snapshot(id)
			want := make([]byte, PageSize)
			sp.m.peek(PageAddr(id), want)
			if !bytes.Equal(snap, want) || !bytes.Equal(sp.s.PageData(id), want) { // PageData: the table, past the cache
				t.Fatalf("%s: Snapshot or PageData differs from the model's page", where)
			}
			PutPageBuf(snap)
		case 11, 13:
			data := fill(min(n*16, PageSize-int(a&PageMask)))
			if len(data) == 0 {
				continue
			}
			runs := []Run{{Addr: a, Data: data}}
			if kind == 11 {
				plan := BuildPlan([][]Run{runs})
				sp.s.ApplyPlan(plan)
				plan.Release()
			} else {
				sp.s.ApplyRuns(runs)
			}
			sp.m.poke(a, data)
		case 12:
			data := fill(n*16 + 1)
			sp.s.Pend([]Run{{Addr: a, Data: data}})
			sp.m.pend(Run{Addr: a, Data: data})
		case 14:
			if !sp.s.Pended(id) {
				continue
			}
			r, b, d := sp.s.FlushPending(id, n%2 == 1)
			if wr, wb, wd := sp.m.flush(id, n%2 == 1); r != wr || b != wb || d != wd {
				t.Fatalf("%s: FlushPending counted %d runs / %d bytes / %d distinct, model %d / %d / %d", where, r, b, d, wr, wb, wd)
			}
		case 15:
			for _, pid := range sp.s.PendedPages(nil) {
				sp.s.FlushPending(pid, n%2 == 1)
				sp.m.flush(pid, n%2 == 1)
			}
		case 16:
			sp.s.SetDirtyTracking(n%2 == 1)
			sp.s.SetReadTracking(n%4 == 3)
			if sp.m.tracking = n%2 == 1; !sp.m.tracking {
				sp.m.resetDirty()
			}
			if sp.m.readTracking = n%4 == 3; !sp.m.readTracking {
				sp.m.resetReads()
			}
		case 17:
			sp.s.ResetDirty()
			sp.m.resetDirty()
		}
		if !slices.Equal(*sp.faults, sp.m.faults) {
			t.Fatalf("%s: the handler saw %+v, the model faults %+v", where, *sp.faults, sp.m.faults)
		}
		*sp.faults, sp.m.faults = nil, nil
		sp.checkRecords(t, where)
		for i, sp := range slots {
			if got, want := sp.s.Hash(), sp.m.hash(); got != want {
				t.Fatalf("%s: slot %d Hash = %#x, model %#x", where, i, got, want)
			}
			if got, want := sp.s.PrivateBytes(), sp.m.privateBytes(); got != want {
				t.Fatalf("%s: slot %d PrivateBytes = %d, model %d", where, i, got, want)
			}
			if got, want := len(sp.s.pages), len(sp.m.pages); got != want {
				t.Fatalf("%s: slot %d PageCount = %d, model %d", where, i, got, want)
			}
			var want []PageID
			for id := range sp.m.pended {
				want = append(want, id)
			}
			slices.Sort(want)
			if got := sp.s.PendedPages(nil); !slices.Equal(got, want) {
				t.Fatalf("%s: slot %d PendedPages = %v, model %v", where, i, got, want)
			}
			if !sp.s.CacheConsistent() {
				t.Fatalf("%s: slot %d: a cache entry disagrees with the page, pended or record table", where, i)
			}
		}
	}
}

// randomSpaceProgram draws operations biased to what a cache in front of the
// tables can get wrong: few slots and pages, so that clones, releases,
// pends, flushes, resets and colliding pages meet cached entries, and offsets at
// both ends of a page. Two programs in three start with tracking on. About
// one operation in thirty is followed by a burst of one-byte stores to a
// snapshotted page, one per chunk, that takes it past denseChunks, which
// scattered stores seldom reach.
func randomSpaceProgram(r *rand.Rand, ops int) []byte {
	var prog []byte
	if r.Intn(3) != 0 {
		for slot := byte(0); slot < 3; slot++ {
			prog = append(prog, spaceOp(16, slot, 0, 0, 0, 1)...)
		}
	}
	for i := 0; i < ops; i++ {
		kind := byte(r.Intn(8)) // an access, most of the time
		switch r.Intn(6) {
		case 0:
			kind = 18
		case 1, 2:
			kind = byte(8 + r.Intn(10))
		}
		off := r.Intn(PageSize)
		switch r.Intn(4) {
		case 0:
			off = r.Intn(16)
		case 1:
			off = PageSize - 1 - r.Intn(16)
		}
		prog = append(prog, spaceOp(kind, byte(r.Intn(3)), byte(r.Intn(3)), byte(r.Intn(16)), off, r.Intn(256))...)
		if r.Intn(30) == 0 {
			// One-byte stores 66 bytes apart, after the monitor's store: the
			// page's extents fragment, and the seventeenth store's chunk is
			// past denseChunks.
			slot, page, off := byte(r.Intn(3)), byte(r.Intn(16)), r.Intn(PageSize-64)
			prog = append(prog, spaceOp(18, slot, 0, page, off, 0)...)
			for k := 0; k <= denseChunks; k++ {
				prog = append(prog, spaceOp(3, slot, 0, page, off+10+66*k, 0)...)
			}
		}
	}
	return prog
}

// TestSpaceMatchesModel: random programs of accesses, clones, releases,
// snapshots, applies, pends, flushes and slice resets leave every space
// answering, faulting and recording exactly as the map-only model.
func TestSpaceMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 60; i++ {
		runSpaceProgram(t, randomSpaceProgram(r, 1+r.Intn(80)))
	}
}

// FuzzSpacePageCache is the same driver reading its operations from the fuzz
// input. The seed corpus under testdata/fuzz/FuzzSpacePageCache holds the
// edge cases by name; plain go test runs it.
func FuzzSpacePageCache(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 96*spaceOpLen {
			prog = prog[:96*spaceOpLen]
		}
		runSpaceProgram(t, prog)
	})
}

// TestSpaceStaysInSizeClass: with the 8-byte allocation header a Space must
// stay ≤ 4,856 bytes to be served from the 4,864-byte class it was in before
// it had a page cache; the next class is 5,376, and one class more per Clone
// is past matmul's 1% alloc_kb_per_run bound. It is 4,728 with sixteen
// 32-byte slots: three more would fit, thirty-two do not. A page record
// (dirtyPage) is its 520-byte mask, its snapshot and its extent storage:
// 568 bytes, in the 576-byte class. Records are pooled, not allocated per
// slice, so the bound is that class: what a record adds is paid once per
// record the pool has to make.
func TestSpaceStaysInSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Space{}); sz > 4856 {
		t.Fatalf("unsafe.Sizeof(Space{}) = %d, want ≤ 4856", sz)
	}
	if sz := unsafe.Sizeof(dirtyPage{}); sz > 576 {
		t.Fatalf("unsafe.Sizeof(dirtyPage{}) = %d, want ≤ 576", sz)
	}
}

// TestPageCacheEdgeCases states a few answers outright, so that the model is
// not the only thing saying what a cached space should read.
func TestPageCacheEdgeCases(t *testing.T) {
	const a, b = PageSize * 3, PageSize * (3 + pageCacheSize) // one cache slot

	t.Run("copy-on-write after Clone, parent and child write", func(t *testing.T) {
		parent := NewSpace()
		parent.Store64(a, 1) // cached, private
		child := parent.Clone()
		parent.Store64(a, 2) // the cached page is shared now: must copy
		if got := child.Load64(a); got != 1 {
			t.Fatalf("child reads %d after the parent's store, want 1", got)
		}
		child.Store64(a, 3) // sole owner of the original page: writes in place
		if p, c := parent.Load64(a), child.Load64(a); p != 2 || c != 3 {
			t.Fatalf("parent, child = %d, %d, want 2, 3", p, c)
		}
		if p, c := parent.PrivateBytes(), child.PrivateBytes(); p != PageSize || c != PageSize {
			t.Fatalf("PrivateBytes = %d, %d, want one page each", p, c)
		}
	})

	t.Run("barrier-style replacement", func(t *testing.T) {
		leader, w := NewSpace(), NewSpace()
		leader.Store64(a, 10)
		w.Store64(a, 20) // w's cache holds its own page
		old := w
		w = leader.Clone()
		old.Release()
		if got := w.Load64(a); got != 10 {
			t.Fatalf("the replaced space reads %d, want the leader's 10", got)
		}
		w.Store64(a, 30)
		if l, g := leader.Load64(a), w.Load64(a); l != 10 || g != 30 {
			t.Fatalf("leader, arrival = %d, %d, want 10, 30", l, g)
		}
		if len(old.pages) != 0 || !old.CacheConsistent() {
			t.Fatal("a released space keeps pages or cache entries")
		}
	})

	t.Run("first store to a page read as zero", func(t *testing.T) {
		s := NewSpace()
		if got := s.Load64(a); got != 0 {
			t.Fatalf("unmapped page reads %d", got)
		}
		if len(s.pages) != 0 {
			t.Fatal("a load materialised a page")
		}
		s.Store64(a+8, 7)
		if z, v := s.Load64(a), s.Load64(a+8); z != 0 || v != 7 {
			t.Fatalf("after the store the page reads %d, %d, want 0, 7", z, v)
		}
		if other := NewSpace(); other.Load64(a+8) != 0 {
			t.Fatal("a store reached the shared zero page")
		}
	})

	t.Run("two live pages collide in one slot", func(t *testing.T) {
		s := NewSpace()
		for i := uint64(0); i < 6; i++ {
			s.Store64(a+8*i, 100+i)
			s.Store64(b+8*i, 200+i)
		}
		for i := uint64(0); i < 6; i++ {
			if x, y := s.Load64(a+8*i), s.Load64(b+8*i); x != 100+i || y != 200+i {
				t.Fatalf("word %d reads %d, %d, want %d, %d", i, x, y, 100+i, 200+i)
			}
		}
		if len(s.pages) != 2 || !s.CacheConsistent() {
			t.Fatalf("PageCount = %d, cache consistent = %v", len(s.pages), s.CacheConsistent())
		}
	})
}

// TestLoadableDeclines: Loadable answers a load only when the slot settles it
// alone. Each decline needs the full path: a fill, a fault, a read record or
// two pages. A page the slice stored to and a page's last word are still
// answered.
func TestLoadableDeclines(t *testing.T) {
	const a = PageSize*3 + 8
	cases := []struct {
		name  string
		setup func(s *Space)
		addr  uint64
		n     uint64
		want  bool
	}{
		{"a slot miss", func(s *Space) { s.Store64(a, 1); s.Store64(a+pageCacheSize*PageSize, 2) }, a, 8, false},
		{"a pended page", func(s *Space) { s.Store64(a, 1); s.Pend([]Run{{Addr: a + 64, Data: []byte{2}}}) }, a, 8, false},
		{"read tracking on", func(s *Space) { s.Store64(a, 1); s.SetReadTracking(true) }, a, 8, false},
		{"a page-straddling load", func(s *Space) { s.Store64(a, 1) }, PageAddr(4) - 4, 8, false},
		{"an unmapped page", func(s *Space) { s.Load64(a) }, a, 8, false},
		{"a page the slice stored to", func(s *Space) { s.SetDirtyTracking(true); s.Store64(a, 7) }, a, 8, true},
		{"a page's last word", func(s *Space) { s.Store64(a, 1) }, PageAddr(4) - 8, 8, true},
	}
	for _, tc := range cases {
		s := NewSpace()
		tc.setup(s)
		p := s.Loadable(tc.addr, tc.n)
		if (p != nil) != tc.want {
			t.Fatalf("%s: Loadable answered %v, want %v", tc.name, p != nil, tc.want)
		}
		if p != nil && binary.LittleEndian.Uint64(p[tc.addr&PageMask:]) != s.Load64(tc.addr) {
			t.Fatalf("%s: Loadable's page differs from Load64", tc.name)
		}
		s.Release()
	}
}
