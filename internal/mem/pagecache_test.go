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

// A Space against the obvious model of one: a page table that is a map and
// nothing else, with copy-on-write sharing counted per page. The Space puts a
// direct-mapped cache in front of its table; the model stays here as the
// reference whatever the Space's lookup becomes.

type modelPage struct {
	refs int
	data [PageSize]byte
}

type modelSpace struct{ pages map[PageID]*modelPage }

func newModelSpace() *modelSpace { return &modelSpace{pages: map[PageID]*modelPage{}} }

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

func (m *modelSpace) read(a uint64, buf []byte) {
	for i := range buf {
		buf[i] = 0
		if p, ok := m.pages[PageOf(a+uint64(i))]; ok {
			buf[i] = p.data[(a+uint64(i))&PageMask]
		}
	}
}

func (m *modelSpace) write(a uint64, data []byte) {
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
//	kind%14  0 1 2   Load8, Load32, Load64 at the page's offset%PageSize
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
//
// Every read is compared with the model's; after every operation every slot's
// Hash, PrivateBytes and PageCount are, and every cache is checked against its
// page table. A trailing fragment shorter than an operation is ignored.
const spaceOpLen = 6

func spaceOp(kind, slot, src, page byte, off, n int) []byte {
	op := []byte{kind, slot&3 | src&3<<2, page, 0, 0, byte(n)}
	binary.LittleEndian.PutUint16(op[3:], uint16(off))
	return op
}

type spacePair struct {
	s *Space
	m *modelSpace
}

func newSpacePair() spacePair {
	s := NewSpace()
	s.SetFaultHandler(func(id PageID, _ bool) { s.Protect(id, ProtRW) })
	return spacePair{s, newModelSpace()}
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
	for step := 0; len(prog) >= spaceOpLen; step, prog = step+1, prog[spaceOpLen:] {
		kind := prog[0] % 14
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
		case 5:
			data := fill(8)
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
			*sp = spacePair{src.s.Clone(), src.m.clone()}
			s := sp.s
			s.SetFaultHandler(func(id PageID, _ bool) { s.Protect(id, ProtRW) })
			old.s.Release()
			old.m.release()
		case 9:
			sp.s.Release()
			sp.m.release()
			*sp = newSpacePair()
		case 10:
			snap := sp.s.Snapshot(id)
			a = PageAddr(id)
			read(snap)
			PutPageBuf(snap)
			read(sp.s.PageData(id)) // the read-only lookup: the table, past the cache
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
			sp.m.write(a, data)
		case 12:
			sp.s.Protect(id, []Prot{ProtNone, ProtRead, ProtRW}[n%3])
		}
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
				t.Fatalf("%s: slot %d: a cache entry disagrees with the page table", where, i)
			}
		}
	}
}

// randomSpaceProgram draws operations biased to what a cache in front of the
// table can get wrong: few slots and pages, so that clones, releases and
// colliding pages meet cached entries, and offsets at both ends of a page.
func randomSpaceProgram(r *rand.Rand, ops int) []byte {
	var prog []byte
	for i := 0; i < ops; i++ {
		kind := byte(r.Intn(8)) // an access, most of the time
		if r.Intn(3) == 0 {
			kind = byte(8 + r.Intn(6))
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
// snapshots, applies and protections leave every space answering exactly as
// the map-only model.
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
// it had a page cache; the next class is 5,376.
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
