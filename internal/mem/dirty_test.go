package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// extentsWellFormed checks the invariant DirtyExtentsOf promises: sorted,
// coalesced, gap-separated (adjacent extents are separated by at least one
// byte), within the page, non-empty.
func extentsWellFormed(exts []Extent) error {
	prevEnd := int64(-2)
	for i, e := range exts {
		if e.Len == 0 {
			return fmt.Errorf("extent %d is empty", i)
		}
		if uint64(e.End()) > PageSize {
			return fmt.Errorf("extent %d = %+v exceeds the page", i, e)
		}
		if int64(e.Off) <= prevEnd {
			return fmt.Errorf("extent %d = %+v overlaps or touches its predecessor", i, e)
		}
		prevEnd = int64(e.End())
	}
	return nil
}

func TestExtentMarkCoalesce(t *testing.T) {
	var d dirtyPage
	var page [PageSize]byte // d has no snapshot: mark copies nothing from it
	d.mark(&page, 100, 10)  // [100,110)
	d.mark(&page, 200, 10)  // disjoint after
	d.mark(&page, 50, 10)   // disjoint before
	if want := []Extent{{50, 10}, {100, 10}, {200, 10}}; !extentsEqual(d.extents, want) {
		t.Fatalf("disjoint marks = %+v, want %+v", d.extents, want)
	}
	d.mark(&page, 110, 5) // touches [100,110) → merges
	if want := []Extent{{50, 10}, {100, 15}, {200, 10}}; !extentsEqual(d.extents, want) {
		t.Fatalf("touching mark = %+v, want %+v", d.extents, want)
	}
	d.mark(&page, 55, 50) // spans the gap between the first two → one extent
	if want := []Extent{{50, 65}, {200, 10}}; !extentsEqual(d.extents, want) {
		t.Fatalf("spanning mark = %+v, want %+v", d.extents, want)
	}
	d.mark(&page, 60, 3) // fully contained: no change
	if want := []Extent{{50, 65}, {200, 10}}; !extentsEqual(d.extents, want) {
		t.Fatalf("contained mark = %+v, want %+v", d.extents, want)
	}
	d.mark(&page, 0, PageSize) // whole page swallows everything
	if want := []Extent{{0, PageSize}}; !extentsEqual(d.extents, want) {
		t.Fatalf("whole-page mark = %+v, want %+v", d.extents, want)
	}
}

func extentsEqual(a, b []Extent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestExtentBitmapConversion(t *testing.T) {
	var d dirtyPage
	var page [PageSize]byte
	// More than maxExtentsPerPage disjoint single-byte writes, two per
	// 128-byte stride, force the bitmap.
	for i := 0; i <= maxExtentsPerPage; i++ {
		d.mark(&page, uint32(i*128), 1)
	}
	if d.bitmap == 0 {
		t.Fatalf("%d disjoint extents did not trigger bitmap mode", maxExtentsPerPage+1)
	}
	exts := d.snapshotExtents()
	if err := extentsWellFormed(exts); err != nil {
		t.Fatalf("bitmap extents malformed: %v", err)
	}
	// Bitmap granularity is ChunkSize: every original byte must be covered,
	// and every extent must be chunk-aligned.
	for i := 0; i <= maxExtentsPerPage; i++ {
		off := uint32(i * 128)
		if !extentsCover(exts, off, 1) {
			t.Fatalf("bitmap extents %+v do not cover byte %d", exts, off)
		}
	}
	for _, e := range exts {
		if e.Off%ChunkSize != 0 || e.Len%ChunkSize != 0 {
			t.Fatalf("bitmap extent %+v is not chunk-aligned", e)
		}
	}
	// Consecutive chunks coalesce: marking everything yields one extent.
	var full dirtyPage
	full.bitmap = ^uint64(0)
	if exts := full.snapshotExtents(); !extentsEqual(exts, []Extent{{0, PageSize}}) {
		t.Fatalf("full bitmap = %+v, want one whole-page extent", exts)
	}
	// Marks after conversion land in the bitmap.
	d.mark(&page, 4095, 1)
	if !extentsCover(d.snapshotExtents(), 4095, 1) {
		t.Fatal("mark after bitmap conversion lost")
	}
}

func extentsCover(exts []Extent, off, n uint32) bool {
	for _, e := range exts {
		if e.Off <= off && off+n <= e.End() {
			return true
		}
	}
	return false
}

func TestChunkMask(t *testing.T) {
	if m := chunkMask(0, 1); m != 1 {
		t.Fatalf("chunkMask(0,1) = %#x", m)
	}
	if m := chunkMask(63, 2); m != 3 { // straddles chunks 0 and 1
		t.Fatalf("chunkMask(63,2) = %#x", m)
	}
	if m := chunkMask(0, PageSize); m != ^uint64(0) {
		t.Fatalf("chunkMask(0,PageSize) = %#x", m)
	}
	if m := chunkMask(4095, 1); m != 1<<63 {
		t.Fatalf("chunkMask(4095,1) = %#x", m)
	}
}

func TestSpaceDirtyTrackingLifecycle(t *testing.T) {
	s := NewSpace()
	s.Store8(100, 1) // before tracking: not recorded
	s.SetDirtyTracking(true)
	if !s.trackDirty {
		t.Fatal("tracking not enabled")
	}
	if n := len(s.dirty); n != 0 {
		t.Fatalf("pre-tracking store recorded: %d pages", n)
	}
	s.Store64(8, 42)
	s.Store32(PageSize+4, 7)
	s.Store8(16, 1)
	if got, want := len(s.dirty), 2; got != want {
		t.Fatalf("DirtyPageCount = %d, want %d", got, want)
	}
	// First-write order, not address order.
	s2 := NewSpace()
	s2.SetDirtyTracking(true)
	s2.Store8(3*PageSize, 1)
	s2.Store8(0, 1)
	s2.Store8(PageSize, 1)
	if want := []PageID{3, 0, 1}; !pageIDsEqual(s2.DirtyPages(), want) {
		t.Fatalf("DirtyPages = %v, want first-write order %v", s2.DirtyPages(), want)
	}
	// ResetDirty clears everything but keeps tracking on.
	s.ResetDirty()
	if len(s.dirty) != 0 || len(s.DirtyPages()) != 0 {
		t.Fatal("ResetDirty left state behind")
	}
	if !s.trackDirty {
		t.Fatal("ResetDirty disabled tracking")
	}
	s.Store8(5, 1)
	if len(s.dirty) != 1 {
		t.Fatal("tracking dead after ResetDirty")
	}
	// Disabling discards state and stops recording.
	s.SetDirtyTracking(false)
	if s.trackDirty || len(s.dirty) != 0 {
		t.Fatal("SetDirtyTracking(false) did not clear")
	}
	s.Store8(5, 1)
	if len(s.dirty) != 0 {
		t.Fatal("store recorded while tracking off")
	}
	if s.DirtyExtentsOf(0) != nil {
		t.Fatal("DirtyExtentsOf should be nil with no recorded writes")
	}
}

func pageIDsEqual(a, b []PageID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCloneDoesNotInheritDirtyTracking(t *testing.T) {
	s := NewSpace()
	s.SetDirtyTracking(true)
	s.Store8(10, 1)
	c := s.Clone()
	if c.trackDirty || len(c.dirty) != 0 {
		t.Fatal("Clone inherited dirty-tracking state")
	}
	// The parent's state is unaffected by the clone.
	if len(s.dirty) != 1 {
		t.Fatal("Clone disturbed parent dirty state")
	}
}

// TestFirstStoreFaults states the write fault outright (SetDirtyTracking):
// while tracking with a handler, a store faults at the slice's first store to
// a page, after any pended-page fault, and never again until ResetDirty; a
// snapshotted page does not; without a handler, or with tracking off, a store
// to a page with nothing pended faults nothing.
func TestFirstStoreFaults(t *testing.T) {
	const a = 3 * PageSize
	cases := []struct {
		name     string
		handler  bool
		tracking bool
		run      func(s *Space)
		want     []fault
	}{
		{"once per page per slice", true, true, func(s *Space) {
			s.Store64(a, 1)
			s.Store8(a+100, 2)
			s.Store32(a+8, 3)
			s.WriteBytes(a+16, []byte{4, 5})
		}, []fault{{3, true}}},
		{"again after ResetDirty", true, true, func(s *Space) {
			s.Store64(a, 1)
			s.ResetDirty()
			s.Store64(a, 2)
			s.Store64(a+8, 3)
		}, []fault{{3, true}, {3, true}}},
		{"WriteBytes across a page boundary, in address order", true, true, func(s *Space) {
			s.WriteBytes(a+PageSize-2, []byte{1, 2, 3, 4})
		}, []fault{{3, true}, {4, true}}},
		{"a straddling Store64, in address order", true, true, func(s *Space) {
			s.Store64(a+PageSize-4, 1)
		}, []fault{{3, true}, {4, true}}},
		{"after the pended-page fault", true, true, func(s *Space) {
			s.Pend([]Run{{Addr: a + 16, Data: []byte{9}}})
			s.Store64(a, 1)
		}, []fault{{3, true}, {3, true}}},
		{"not after SnapshotPage", true, true, func(s *Space) {
			s.SnapshotPage(3)
			s.Store64(a, 1)
		}, nil},
		{"loads never", true, true, func(s *Space) {
			s.Load64(a)
			s.ReadBytes(a, make([]byte, 8))
		}, nil},
		{"no handler", false, true, func(s *Space) { s.Store64(a, 1) }, nil},
		{"tracking off", true, false, func(s *Space) {
			s.Store64(a, 1)
			s.WriteBytes(a+PageSize-2, []byte{1, 2, 3, 4})
		}, nil},
	}
	for _, tc := range cases {
		s := NewSpace()
		var got []fault
		if tc.handler {
			s.SetFaultHandler(func(id PageID, write bool) {
				got = append(got, fault{id, write})
				if s.Pended(id) {
					s.FlushPending(id, true)
				}
			})
		}
		s.SetDirtyTracking(tc.tracking)
		tc.run(s)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: faults %+v, want %+v", tc.name, got, tc.want)
		}
		s.Release()
	}
}

// writeScript drives a random monitored write sequence against a tracked
// space, snapshotting each page on its first write exactly as the CI/PF
// monitors do, and returns the snapshots in first-write order. The sequence
// mixes Store8/Store32/Store64/WriteBytes, page-straddling writes and
// same-value overwrites (which must be *excluded* from the diff but may be
// *included* in the extents).
func writeScript(r *rand.Rand, s *Space, pages int) (map[PageID][]byte, []PageID) {
	snaps := make(map[PageID][]byte)
	var order []PageID
	limit := uint64(pages * PageSize)
	snapshot := func(a, n uint64) {
		for pid := PageOf(a); ; pid++ {
			if _, ok := snaps[pid]; !ok {
				snaps[pid] = s.Snapshot(pid)
				order = append(order, pid)
			}
			if pid == PageOf(a+n-1) {
				break
			}
		}
	}
	nops := 20 + r.Intn(200)
	for i := 0; i < nops; i++ {
		switch r.Intn(5) {
		case 0:
			a := uint64(r.Intn(int(limit)))
			snapshot(a, 1)
			if r.Intn(4) == 0 {
				s.Store8(a, s.Load8(a)) // same-value overwrite
			} else {
				s.Store8(a, byte(r.Int()))
			}
		case 1:
			a := uint64(r.Intn(int(limit) - 4))
			snapshot(a, 4)
			s.Store32(a, uint32(r.Int63()))
		case 2:
			a := uint64(r.Intn(int(limit) - 8))
			snapshot(a, 8)
			if r.Intn(4) == 0 {
				s.Store64(a, s.Load64(a)) // same-value overwrite
			} else {
				s.Store64(a, uint64(r.Int63()))
			}
		case 3: // page-straddling bulk write
			n := uint64(1 + r.Intn(3*PageSize/2))
			a := uint64(r.Intn(int(limit - n)))
			buf := make([]byte, n)
			r.Read(buf)
			snapshot(a, n)
			s.WriteBytes(a, buf)
		case 4: // dense single-page scribble: pushes the page to bitmap mode
			pid := PageID(r.Intn(pages))
			base := PageAddr(pid)
			snapshot(base, 1)
			for k := 0; k < maxExtentsPerPage+4; k++ {
				off := uint64(r.Intn(PageSize))
				s.Store8(base+off, byte(r.Int()))
			}
		}
	}
	return snaps, order
}

// TestDiffExtentsEquivalence is the tentpole's property test: for random
// monitored write sequences, the extent-guided diff must produce runs
// byte-for-byte identical to the full-page diff on every written page — and
// the recorded extents must be a well-formed superset of the bytes that
// actually differ from the snapshot.
func TestDiffExtentsEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSpace()
		s.SetDirtyTracking(true)
		snaps, order := writeScript(r, s, 4)
		for _, pid := range order {
			snap, cur := snaps[pid], s.PageData(pid)
			full := DiffPage(pid, snap, cur)
			exts := s.DirtyExtentsOf(pid)
			if err := extentsWellFormed(exts); err != nil {
				t.Logf("seed %d page %d: %v", seed, pid, err)
				return false
			}
			// Superset: every differing byte lies inside some extent.
			for i := 0; i < PageSize; i++ {
				if snap[i] != cur[i] && !extentsCover(exts, uint32(i), 1) {
					t.Logf("seed %d page %d: modified byte %d outside extents", seed, pid, i)
					return false
				}
			}
			guided := DiffPageExtents(pid, snap, cur, exts)
			if !runsEqual(full, guided) {
				t.Logf("seed %d page %d: extent-guided diff diverges:\nfull   %v\nguided %v",
					seed, pid, full, guided)
				return false
			}
		}
		// A page that was snapshotted but never written must diff empty
		// under both paths (nil extents → nothing to scan).
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func runsEqual(a, b []Run) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Addr != b[i].Addr || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// TestDiffExtentsEquivalenceBitmap pins the bitmap degradation path: a page
// fragmented past maxExtentsPerPage must still diff identically, with
// chunk-granular extents.
func TestDiffExtentsEquivalenceBitmap(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	s := NewSpace()
	s.SetDirtyTracking(true)
	snap := s.Snapshot(0)
	// 32 disjoint 1-byte writes at 128-byte strides: far past the threshold.
	for i := 0; i < 32; i++ {
		s.Store8(uint64(i*128), byte(r.Int())|1)
	}
	exts := s.DirtyExtentsOf(0)
	if len(exts) == 0 {
		t.Fatal("no extents recorded")
	}
	full := DiffPage(0, snap, s.PageData(0))
	guided := DiffPageExtents(0, snap, s.PageData(0), exts)
	if !runsEqual(full, guided) {
		t.Fatalf("bitmap-mode diff diverges:\nfull   %v\nguided %v", full, guided)
	}
	if got := ExtentBytes(exts); got >= PageSize {
		t.Fatalf("bitmap extents scan the whole page (%d bytes): no sparsity win", got)
	}
}

// TestDiffPageExtentsTruncatedSnapshot mirrors DiffPage's truncated-snapshot
// contract (see TestDiffPageTruncatedSnapshot): extents reaching past the
// snapshot are clamped to the common prefix.
func TestDiffPageExtentsTruncatedSnapshot(t *testing.T) {
	snap := []byte{1, 2, 3, 4}
	cur := make([]byte, PageSize)
	for i := range cur {
		cur[i] = 9
	}
	runs := DiffPageExtents(0, snap, cur, []Extent{{0, PageSize}})
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(runs))
	}
	if runs[0].Addr != 0 || len(runs[0].Data) != len(snap) {
		t.Fatalf("run %+v not clamped to len(snapshot)=%d", runs[0], len(snap))
	}
	// An extent entirely past the snapshot contributes nothing.
	if runs := DiffPageExtents(0, snap, cur, []Extent{{8, 16}}); len(runs) != 0 {
		t.Fatalf("extent past snapshot produced runs: %v", runs)
	}
}

func TestExtentBytes(t *testing.T) {
	if n := ExtentBytes(nil); n != 0 {
		t.Fatalf("ExtentBytes(nil) = %d", n)
	}
	if n := ExtentBytes([]Extent{{0, 10}, {100, 5}}); n != 15 {
		t.Fatalf("ExtentBytes = %d, want 15", n)
	}
}

// BenchmarkDiffFragmented diffs an fft-shaped page: every float64 rewritten,
// each sharing a byte (now and then two) with the value it replaced, so the
// byte-granular diff cuts a run at nearly every word — 516 runs of about 7
// bytes, into storage that has held the same diff before, as finishSlice's
// scratch has. A word-stride diff (XOR eight bytes, then an exact zero-byte
// test) emitting the same runs was tried against it: byte-identical on 20,000
// random pages, and slower here — 5.4–6.0 against 8.8–10.6 µs, three runs
// each on a 2-vCPU x86-64 host. Runs this short are bound by the per-run
// append, not by the compare; a word stride pays only if its output is a mask.
func BenchmarkDiffFragmented(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	snap, cur := make([]byte, PageSize), make([]byte, PageSize)
	r.Read(snap)
	for w := 0; w < PageSize; w += 8 {
		same := w + r.Intn(8)
		for i := w; i < w+8; i++ {
			cur[i] = snap[i] ^ byte(1+r.Intn(255))
		}
		cur[same] = snap[same]
		if r.Intn(16) == 0 { // now and then a second shared byte
			same = w + r.Intn(8)
			cur[same] = snap[same]
		}
	}
	exts := []Extent{{Off: 0, Len: PageSize}}
	runs, buf := AppendDiffPageExtents(nil, make([]byte, 0, PageSize), 0, snap, cur, exts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, buf = AppendDiffPageExtents(runs[:0], buf[:0], 0, snap, cur, exts)
	}
	b.ReportMetric(float64(len(runs)), "runs")
}

// TestSnapshotCopiesOnlyWrittenChunks pins the snapshot's granularity. With
// the poison hook on, a pooled buffer comes out of GetPageBuf as 0xDB, so a
// snapshot chunk reads as the page only where a store copied it: the chunk a
// store is the first to write, every chunk once more than denseChunks have
// been copied, and on both pages of a WriteBytes that crosses a boundary.
func TestSnapshotCopiesOnlyWrittenChunks(t *testing.T) {
	SetPageBufPoison(true)
	defer SetPageBufPoison(false)
	s := NewSpace()
	defer s.Release()
	// Chunk c of every page holds the byte c+1: no chunk equals another, or
	// poison.
	before := map[PageID][]byte{}
	for _, id := range []PageID{3, 5, 6} {
		for off := uint64(0); off < PageSize; off += 8 {
			s.Store64(PageAddr(id)+off, 0x0101010101010101*(off/ChunkSize+1))
		}
		before[id] = bytes.Clone(s.PageData(id))
	}
	s.SetDirtyTracking(true)
	poison := bytes.Repeat([]byte{0xDB}, ChunkSize)
	// expect checks page id's snapshot: the page as it was before the slice
	// on the chunks in copied, poison on the others.
	expect := func(what string, id PageID, copied ...int) {
		t.Helper()
		snap := s.SnapshotOf(id)
		for c := 0; c < PageSize/ChunkSize; c++ {
			lo, hi := c*ChunkSize, (c+1)*ChunkSize
			want := poison
			if slices.Contains(copied, c) {
				want = before[id][lo:hi]
			}
			if !bytes.Equal(snap[lo:hi], want) {
				t.Fatalf("%s: page %d chunk %d of the snapshot = %x, want %x", what, id, c, snap[lo:hi], want)
			}
		}
	}

	s.SnapshotPage(3)
	expect("SnapshotPage", 3)
	s.Store64(PageAddr(3)+1000, ^uint64(0))
	expect("one Store64 at offset 1000", 3, 1000/ChunkSize)
	s.Store64(PageAddr(3)+1000, 0) // a rewrite copies nothing
	expect("a rewrite", 3, 1000/ChunkSize)

	var held []int
	for c := range denseChunks {
		held = append(held, c)
		if c != 1000/ChunkSize {
			s.Store8(PageAddr(3)+uint64(c*ChunkSize+5), 0)
		}
	}
	expect(fmt.Sprintf("%d distinct chunks", denseChunks), 3, held...)
	s.Store32(PageAddr(3)+40*ChunkSize, 0)
	if snap := s.SnapshotOf(3); !bytes.Equal(snap, before[3]) {
		t.Fatalf("the chunk past %d did not copy the rest of the page", denseChunks)
	}

	s.SnapshotPage(5)
	s.SnapshotPage(6)
	s.WriteBytes(PageAddr(6)-100, make([]byte, 200)) // page 5 bytes 3996…, page 6 bytes …99
	expect("WriteBytes across the boundary", 5, 3996/ChunkSize, 63)
	expect("WriteBytes across the boundary", 6, 0, 99/ChunkSize)
}
