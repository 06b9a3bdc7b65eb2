package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	s := NewSpace()
	s.Store8(100, 0xab)
	if got := s.Load8(100); got != 0xab {
		t.Fatalf("Load8 = %#x", got)
	}
	s.Store32(200, 0xdeadbeef)
	if got := s.Load32(200); got != 0xdeadbeef {
		t.Fatalf("Load32 = %#x", got)
	}
	s.Store64(300, 0x0123456789abcdef)
	if got := s.Load64(300); got != 0x0123456789abcdef {
		t.Fatalf("Load64 = %#x", got)
	}
}

func TestUnmappedReadsAsZero(t *testing.T) {
	s := NewSpace()
	if s.Load64(1<<40) != 0 || s.Load8(0) != 0 {
		t.Fatal("unmapped memory must read as zero")
	}
	if s.PageCount() != 0 {
		t.Fatal("reads must not materialize pages")
	}
}

func TestCrossPageAccesses(t *testing.T) {
	s := NewSpace()
	a := uint64(PageSize - 3) // straddles the first page boundary
	s.Store64(a, 0x1122334455667788)
	if got := s.Load64(a); got != 0x1122334455667788 {
		t.Fatalf("cross-page Load64 = %#x", got)
	}
	s.Store32(uint64(2*PageSize-2), 0xcafebabe)
	if got := s.Load32(uint64(2*PageSize - 2)); got != 0xcafebabe {
		t.Fatalf("cross-page Load32 = %#x", got)
	}
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	s.WriteBytes(uint64(PageSize/2), data)
	buf := make([]byte, len(data))
	s.ReadBytes(uint64(PageSize/2), buf)
	if !bytes.Equal(buf, data) {
		t.Fatal("multi-page ReadBytes/WriteBytes mismatch")
	}
}

func TestCloneCopyOnWrite(t *testing.T) {
	parent := NewSpace()
	parent.Store64(64, 42)
	child := parent.Clone()
	if child.Load64(64) != 42 {
		t.Fatal("child must inherit parent memory")
	}
	// Child writes stay private.
	child.Store64(64, 99)
	if parent.Load64(64) != 42 {
		t.Fatal("child write leaked into parent")
	}
	// Parent writes after the clone stay private too.
	parent.Store64(72, 7)
	if child.Load64(72) != 0 {
		t.Fatal("parent write leaked into child")
	}
	if child.Load64(64) != 99 {
		t.Fatal("child lost its own write")
	}
}

func TestCloneSharingIsAccounted(t *testing.T) {
	parent := NewSpace()
	for i := 0; i < 10; i++ {
		parent.Store8(uint64(i*PageSize), 1)
	}
	child := parent.Clone()
	if child.PrivateBytes() != 0 {
		t.Fatalf("fresh clone should share everything; private = %d", child.PrivateBytes())
	}
	child.Store8(0, 2)
	if child.PrivateBytes() != PageSize {
		t.Fatalf("after one COW, private = %d, want %d", child.PrivateBytes(), PageSize)
	}
	child.Release()
	if parent.PrivateBytes() != uint64(parent.PageCount())*PageSize {
		t.Fatal("after child release, parent should own all pages exclusively")
	}
}

func TestDiffPageProperties(t *testing.T) {
	// Property: applying DiffPage(snapshot, current) runs onto the snapshot
	// reproduces current, and redundant (identical) bytes never appear.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		snap := make([]byte, PageSize)
		cur := make([]byte, PageSize)
		r.Read(snap)
		copy(cur, snap)
		// Mutate a few random ranges; some with identical values
		// (redundant writes).
		for k := 0; k < r.Intn(8); k++ {
			off := r.Intn(PageSize)
			n := r.Intn(64)
			for i := off; i < off+n && i < PageSize; i++ {
				if r.Intn(3) == 0 {
					cur[i] = snap[i] // redundant
				} else {
					cur[i] = byte(r.Int())
				}
			}
		}
		runs := DiffPage(7, snap, cur)
		rebuilt := make([]byte, PageSize)
		copy(rebuilt, snap)
		base := PageAddr(7)
		for _, run := range runs {
			if run.Addr < base || run.End() > base+PageSize {
				return false
			}
			copy(rebuilt[run.Addr-base:], run.Data)
			// No redundant bytes inside any run.
			for i, b := range run.Data {
				if snap[run.Addr-base+uint64(i)] == b {
					return false
				}
			}
		}
		return bytes.Equal(rebuilt, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDiffPageTruncatedSnapshot pins the contract documented on DiffPage:
// only the common prefix of snapshot and current is compared, so a snapshot
// shorter than the page silently contributes no runs for the tail — even
// when the tail's current bytes are nonzero.
func TestDiffPageTruncatedSnapshot(t *testing.T) {
	cur := make([]byte, PageSize)
	for i := range cur {
		cur[i] = byte(i) | 1 // nonzero everywhere
	}
	snap := []byte{0, 0, 0, 0}
	runs := DiffPage(3, snap, cur)
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want exactly 1 (the prefix)", len(runs))
	}
	base := PageAddr(3)
	if runs[0].Addr != base || len(runs[0].Data) != len(snap) {
		t.Fatalf("run %+v: want addr %#x, len %d — tail beyond the snapshot must be ignored",
			runs[0], base, len(snap))
	}
	// Zero-length snapshot: nothing to compare, no runs at all.
	if runs := DiffPage(3, nil, cur); len(runs) != 0 {
		t.Fatalf("nil snapshot produced %d runs", len(runs))
	}
	// The symmetric case — current shorter than snapshot — likewise clamps.
	if runs := DiffPage(3, cur, []byte{1}); len(runs) != 0 {
		t.Fatalf("short current: got %v, want no runs (cur[0]==snap[0])", runs)
	}
}

func TestDiffPageEmptyOnIdentical(t *testing.T) {
	snap := make([]byte, PageSize)
	cur := make([]byte, PageSize)
	for i := range snap {
		snap[i] = byte(i)
		cur[i] = byte(i)
	}
	if runs := DiffPage(0, snap, cur); len(runs) != 0 {
		t.Fatalf("identical pages diffed to %d runs", len(runs))
	}
}

func TestApplyRunsOrderMatters(t *testing.T) {
	s := NewSpace()
	runs := []Run{
		{Addr: 10, Data: []byte{1, 1, 1}},
		{Addr: 11, Data: []byte{2}}, // later run overwrites ("remote wins")
	}
	s.ApplyRuns(runs)
	if s.Load8(10) != 1 || s.Load8(11) != 2 || s.Load8(12) != 1 {
		t.Fatalf("ApplyRuns order broken: %d %d %d", s.Load8(10), s.Load8(11), s.Load8(12))
	}
}

func TestProtectionFaults(t *testing.T) {
	s := NewSpace()
	s.Store8(0, 1)          // page 0 resident
	s.Store8(5*PageSize, 1) // page 5 resident
	var faults []struct {
		pid   PageID
		write bool
	}
	s.SetFaultHandler(func(pid PageID, write bool) {
		faults = append(faults, struct {
			pid   PageID
			write bool
		}{pid, write})
		s.Protect(pid, ProtRW)
	})
	n := s.ProtectAll(ProtRead)
	if n != 2 {
		t.Fatalf("ProtectAll returned %d resident pages, want 2", n)
	}
	// Reads do not fault under write protection.
	_ = s.Load8(0)
	if len(faults) != 0 {
		t.Fatal("read faulted under ProtRead")
	}
	// First write faults once, then the page is open.
	s.Store8(1, 2)
	s.Store8(2, 3)
	if len(faults) != 1 || faults[0].pid != 0 || !faults[0].write {
		t.Fatalf("unexpected faults: %+v", faults)
	}
	// A store to a page that is not resident yet must fault too: the
	// whole-mapping protection covers pages to be materialized.
	s.Store8(9*PageSize, 1)
	if len(faults) != 2 || faults[1].pid != 9 {
		t.Fatalf("fresh-page store did not fault: %+v", faults)
	}
	// ProtNone faults on reads as well.
	s.Protect(0, ProtNone)
	_ = s.Load8(0)
	if len(faults) != 3 || faults[2].write {
		t.Fatalf("ProtNone read did not fault: %+v", faults)
	}
}

func TestClearProtections(t *testing.T) {
	s := NewSpace()
	s.Store8(0, 1)
	faults := 0
	s.SetFaultHandler(func(pid PageID, write bool) {
		faults++
		s.Protect(pid, ProtRW)
	})
	s.ProtectAll(ProtRead)
	s.ProtectAll(ProtRW)
	s.Store8(1, 2)
	if faults != 0 {
		t.Fatal("store faulted after ProtectAll(ProtRW)")
	}
	if s.ProtectionOf(0) != ProtRW {
		t.Fatal("ProtectionOf should be ProtRW after clear")
	}
}

func TestHashDeterministicAndSensitive(t *testing.T) {
	build := func(vals map[uint64]byte) *Space {
		s := NewSpace()
		for a, v := range vals {
			s.Store8(a, v)
		}
		return s
	}
	a := build(map[uint64]byte{0: 1, 5000: 2})
	b := build(map[uint64]byte{0: 1, 5000: 2})
	if a.Hash() != b.Hash() {
		t.Fatal("equal contents must hash equal")
	}
	c := build(map[uint64]byte{0: 1, 5000: 3})
	if a.Hash() == c.Hash() {
		t.Fatal("different contents should hash differently")
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	s := NewSpace()
	s.Store8(10, 1)
	snap := s.Snapshot(0)
	s.Store8(10, 2)
	if snap[10] != 1 {
		t.Fatal("snapshot must not alias the live page")
	}
}

func TestRunBytes(t *testing.T) {
	runs := []Run{{Addr: 0, Data: make([]byte, 3)}, {Addr: 10, Data: make([]byte, 5)}}
	if RunBytes(runs) != 8 {
		t.Fatalf("RunBytes = %d", RunBytes(runs))
	}
}
