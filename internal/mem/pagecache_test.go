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

// A Space against the obvious model of one: a page table, a protection table
// and a per-page written-byte set that are maps and nothing else, with
// copy-on-write sharing counted per page. The Space puts a direct-mapped cache
// in front of its tables, each slot carrying the page, its protection and the
// slice's record of it; the model stays here as the reference whatever the
// Space's lookup becomes.

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
	pages   map[PageID]*modelPage
	prot    map[PageID]Prot
	defProt Prot
	faults  []fault // what the handler must have been called with, in order

	// The slice's records, while tracking: pages in first-touch order, the
	// bytes written since the last reset, the snapshot taken at first write.
	tracking bool
	order    []PageID
	written  map[PageID]*[PageSize]bool
	snaps    map[PageID]*[PageSize]byte
}

func newModelSpace() *modelSpace {
	return &modelSpace{
		pages:   map[PageID]*modelPage{},
		prot:    map[PageID]Prot{},
		written: map[PageID]*[PageSize]bool{},
		snaps:   map[PageID]*[PageSize]byte{},
	}
}

// clone shares the pages; protections and records are not inherited.
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
}

func (m *modelSpace) protect(id PageID, pr Prot) {
	if pr == ProtRW && m.defProt == ProtRW {
		delete(m.prot, id)
	} else {
		m.prot[id] = pr
	}
}

func (m *modelSpace) protectAll(pr Prot) {
	m.defProt = pr
	clear(m.prot)
}

// access takes the faults of an n-byte access at a, a page at a time; the
// handler lowers each faulting page to read-write, as the test's handler does.
func (m *modelSpace) access(a uint64, n int, write bool) {
	for id := PageOf(a); n > 0 && id <= PageOf(a+uint64(n)-1); id++ {
		pr, ok := m.prot[id]
		if !ok {
			pr = m.defProt
		}
		if pr == ProtNone || pr == ProtRead && write {
			m.faults = append(m.faults, fault{id, write})
			m.protect(id, ProtRW)
		}
	}
}

func (m *modelSpace) read(a uint64, buf []byte) {
	m.access(a, len(buf), false)
	m.peek(a, buf)
}

// peek reads past the protections, as Snapshot and PageData do.
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

// snapshot is the monitor's: the page's contents at the slice's first write.
func (m *modelSpace) snapshot(id PageID) {
	m.touch(id)
	snap := new([PageSize]byte)
	m.peek(PageAddr(id), snap[:])
	m.snaps[id] = snap
}

func (m *modelSpace) resetDirty() {
	m.order = nil
	clear(m.written)
	clear(m.snaps)
}

func (m *modelSpace) write(a uint64, data []byte) {
	m.access(a, len(data), true)
	m.poke(a, data)
	if !m.tracking {
		return
	}
	for i := range data {
		id := PageOf(a + uint64(i))
		m.touch(id)
		if m.written[id] == nil {
			m.written[id] = new([PageSize]bool)
		}
		m.written[id][(a+uint64(i))&PageMask] = true
	}
}

// poke writes past protections and records, as a propagated update does.
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
//	         12      Protect the page: none (length%3 = 0), read, read-write;
//	                 the fault handler lowers it again, as the runtime's does
//	         13      ApplyRuns of the same run as 11
//	         14      ProtectAll: none (length%3 = 0), read, read-write
//	         15      ProtectAll(ProtRW)
//	         16      SetDirtyTracking(length odd)
//	         17      ResetDirty
//	         18      the CI monitor's Store64: SnapshotPage of every page of the
//	                 range the slice has no snapshot of, then the store (a plain
//	                 Store64 while tracking is off)
//
// Every read is compared with the model's, and the handler's calls — which
// page, load or store, in which order — with the faults the model took; after
// every operation every slot's Hash, PrivateBytes and PageCount are compared,
// every cache is checked against its tables, and the operated slot's records
// are: the pages in first-touch order, each page's extents well-formed and a
// superset of the bytes written since the last reset (exactly those bytes
// until the page degrades to the chunk bitmap), each snapshot the page as it
// was at its first write. A trailing fragment shorter than an operation is
// ignored.
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
		s.Protect(id, ProtRW)
	})
	return sp
}

func newSpacePair() spacePair { return pairOf(NewSpace(), newModelSpace()) }

// checkRecords compares the space's page records with the model's.
func (sp spacePair) checkRecords(t *testing.T, where string) {
	t.Helper()
	if got := sp.s.DirtyPages(); !slices.Equal(got, sp.m.order) || sp.s.DirtyPageCount() != len(sp.m.order) {
		t.Fatalf("%s: %d records, of pages %v; model's first-touch order %v", where, sp.s.DirtyPageCount(), got, sp.m.order)
	}
	for _, id := range sp.m.order {
		exts := sp.s.DirtyExtentsOf(id)
		if err := extentsWellFormed(exts); err != nil {
			t.Fatalf("%s: page %d extents %+v: %v", where, id, exts, err)
		}
		var covered [PageSize]bool
		for _, e := range exts {
			for b := e.Off; b < e.End(); b++ {
				covered[b] = true
			}
		}
		written := sp.m.written[id]
		if written == nil {
			written = new([PageSize]bool) // snapshotted, not yet stored to
		}
		exact := !sp.s.dirty[id].bitmapped
		for b := range covered {
			if written[b] && !covered[b] || exact && covered[b] && !written[b] {
				t.Fatalf("%s: page %d byte %d: written %v, in extents %+v (exact: %v)", where, id, b, written[b], exts, exact)
			}
		}
		switch snap, want := sp.s.SnapshotOf(id), sp.m.snaps[id]; {
		case want == nil && snap != nil:
			t.Fatalf("%s: page %d has a snapshot the model never took", where, id)
		case want != nil && !bytes.Equal(snap, want[:]):
			t.Fatalf("%s: page %d snapshot is not the page at its first write", where, id)
		}
	}
}

func runSpaceProgram(t *testing.T, prog []byte) {
	t.Helper()
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
	prots := []Prot{ProtNone, ProtRead, ProtRW}
	for step := 0; len(prog) >= spaceOpLen; step, prog = step+1, prog[spaceOpLen:] {
		kind := prog[0] % 19
		sp, src := &slots[prog[1]&3], &slots[prog[1]>>2&3]
		id := PageID(prog[2]%4) + PageID(prog[2]/4%4)*pageCacheSize
		a := PageAddr(id) + uint64(binary.LittleEndian.Uint16(prog[3:]))%PageSize
		n := int(prog[5])
		where := fmt.Sprintf("step %d (kind %d, page %d)", step, kind, id)
		read := func(got []byte) {
			t.Helper()
			want := make([]byte, len(got))
			sp.m.read(a, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: read %d bytes at %#x = %x, model %x", where, len(got), a, got, want)
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
					if sp.m.snaps[pid] == nil {
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
			sp.s.Protect(id, prots[n%3])
			sp.m.protect(id, prots[n%3])
		case 14:
			sp.s.ProtectAll(prots[n%3])
			sp.m.protectAll(prots[n%3])
		case 15:
			sp.s.ProtectAll(ProtRW)
			sp.m.protectAll(ProtRW)
		case 16:
			sp.s.SetDirtyTracking(n%2 == 1)
			if sp.m.tracking = n%2 == 1; !sp.m.tracking {
				sp.m.resetDirty()
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
			if got, want := sp.s.PageCount(), len(sp.m.pages); got != want {
				t.Fatalf("%s: slot %d PageCount = %d, model %d", where, i, got, want)
			}
			if !sp.s.CacheConsistent() {
				t.Fatalf("%s: slot %d: a cache entry disagrees with the page, protection or record table", where, i)
			}
		}
	}
}

// randomSpaceProgram draws operations biased to what a cache in front of the
// tables can get wrong: few slots and pages, so that clones, releases,
// protections, resets and colliding pages meet cached entries, and offsets at
// both ends of a page. Two programs in three start with tracking on.
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
	}
	return prog
}

// TestSpaceMatchesModel: random programs of accesses, clones, releases,
// snapshots, applies, protections and slice resets leave every space
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
// is past matmul's 1% alloc_kb_per_run bound. It is 4,760 with sixteen
// 32-byte slots: three more would fit, thirty-two do not.
func TestSpaceStaysInSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Space{}); sz > 4856 {
		t.Fatalf("unsafe.Sizeof(Space{}) = %d, want ≤ 4856", sz)
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
		if old.PageCount() != 0 || !old.CacheConsistent() {
			t.Fatal("a released space keeps pages or cache entries")
		}
	})

	t.Run("first store to a page read as zero", func(t *testing.T) {
		s := NewSpace()
		if got := s.Load64(a); got != 0 {
			t.Fatalf("unmapped page reads %d", got)
		}
		if s.PageCount() != 0 {
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
		if s.PageCount() != 2 || !s.CacheConsistent() {
			t.Fatalf("PageCount = %d, cache consistent = %v", s.PageCount(), s.CacheConsistent())
		}
	})
}
