package mem

import (
	"fmt"
	"testing"
)

// extstr renders an extent list compactly for comparison.
func extstr(exts []Extent) string {
	out := ""
	for _, e := range exts {
		out += fmt.Sprintf("[%d+%d)", e.Off, e.Len)
	}
	return out
}

// TestReadTrackingLifecycle covers enable → record → harvest → reset →
// disable: tracking off records nothing and allocates nothing.
func TestReadTrackingLifecycle(t *testing.T) {
	s := NewSpace()
	s.WriteBytes(0, make([]byte, 4*PageSize))

	// Off by default: loads leave no trace and no map.
	s.Load64(8)
	if s.ReadTracking() || s.reads != nil || len(s.ReadPages()) != 0 {
		t.Fatal("tracking state leaked while disabled")
	}

	s.SetReadTracking(true)
	if !s.ReadTracking() {
		t.Fatal("tracking not enabled")
	}
	s.Load64(8)
	s.Load32(PageSize + 100)
	s.Load8(20)
	if got := len(s.ReadPages()); got != 2 {
		t.Fatalf("expected 2 read pages, got %d (%v)", got, s.ReadPages())
	}
	// First-read order, not page order.
	if s.ReadPages()[0] != 0 || s.ReadPages()[1] != 1 {
		t.Fatalf("read order %v", s.ReadPages())
	}
	if got := extstr(s.ReadExtentsOf(0)); got != "[8+8)[20+1)" {
		t.Fatalf("page 0 extents %s", got)
	}
	if got := extstr(s.ReadExtentsOf(1)); got != "[100+4)" {
		t.Fatalf("page 1 extents %s", got)
	}

	s.ResetReads()
	if len(s.ReadPages()) != 0 || s.ReadExtentsOf(0) != nil {
		t.Fatal("reset did not clear read state")
	}
	// Tracking still on after reset.
	s.Load8(5)
	if got := extstr(s.ReadExtentsOf(0)); got != "[5+1)" {
		t.Fatalf("post-reset extents %s", got)
	}

	s.SetReadTracking(false)
	if s.reads != nil || len(s.ReadPages()) != 0 {
		t.Fatal("disable did not discard state")
	}
	s.Load64(8) // must not panic or record
	if s.ReadPages() != nil && len(s.ReadPages()) != 0 {
		t.Fatal("recorded a read while disabled")
	}
}

// TestReadTrackingPrecision checks reads coalesce when adjacent but never
// widen beyond the loaded bytes — the tracker must not degrade to chunk
// granularity the way the dirty tracker may.
func TestReadTrackingPrecision(t *testing.T) {
	s := NewSpace()
	s.WriteBytes(0, make([]byte, 2*PageSize))
	s.SetReadTracking(true)

	// Many scattered one-byte loads: each remains an exact 1-byte extent.
	for i := uint64(0); i < 200; i++ {
		s.Load8(i * 7) // stride 7: never adjacent
	}
	exts := s.ReadExtentsOf(0)
	total := uint32(0)
	for _, e := range exts {
		if e.Len != 1 {
			t.Fatalf("scattered 1-byte load widened to %d bytes at %d", e.Len, e.Off)
		}
		total += e.Len
	}
	if total != 200 {
		t.Fatalf("read byte total %d != 200", total)
	}

	// Sequential loads coalesce into a single extent.
	s.ResetReads()
	for i := uint64(0); i < 64; i++ {
		s.Load64(i * 8)
	}
	if got := extstr(s.ReadExtentsOf(0)); got != "[0+512)" {
		t.Fatalf("sequential loads did not coalesce: %s", got)
	}
}

// TestReadTrackingBulkAndStraddle checks ReadBytes marks exactly the copied
// range on every touched page, including loads straddling a page boundary
// (which delegate to ReadBytes and must not double-mark).
func TestReadTrackingBulkAndStraddle(t *testing.T) {
	s := NewSpace()
	s.WriteBytes(0, make([]byte, 3*PageSize))
	s.SetReadTracking(true)

	buf := make([]byte, PageSize+10)
	s.ReadBytes(PageSize-5, buf)
	if got := extstr(s.ReadExtentsOf(0)); got != fmt.Sprintf("[%d+5)", PageSize-5) {
		t.Fatalf("page 0: %s", got)
	}
	if got := extstr(s.ReadExtentsOf(1)); got != fmt.Sprintf("[0+%d)", PageSize) {
		t.Fatalf("page 1: %s", got)
	}
	if got := extstr(s.ReadExtentsOf(2)); got != "[0+5)" {
		t.Fatalf("page 2: %s", got)
	}

	s.ResetReads()
	s.Load64(PageSize - 3) // straddling load
	if got := extstr(s.ReadExtentsOf(0)); got != fmt.Sprintf("[%d+3)", PageSize-3) {
		t.Fatalf("straddle page 0: %s", got)
	}
	if got := extstr(s.ReadExtentsOf(1)); got != "[0+5)" {
		t.Fatalf("straddle page 1: %s", got)
	}
}

// TestReadTrackingIgnoresPropagation checks slice application and direct
// patch/run application never mark reads: only the owning thread's loads do.
func TestReadTrackingIgnoresPropagation(t *testing.T) {
	s := NewSpace()
	s.WriteBytes(0, make([]byte, PageSize))
	s.SetReadTracking(true)
	s.ApplyRuns([]Run{{Addr: 64, Data: []byte{1, 2, 3}}})
	p := NewPagePatch(0)
	p.AddRun(Run{Addr: 128, Data: []byte{9}})
	s.ApplyPatch(p)
	if len(s.ReadPages()) != 0 {
		t.Fatalf("propagation writes marked reads: %v", s.ReadPages())
	}
}

// TestCloneOrderFree backs Clone's (and Release's) //detvet:orderfree
// annotations: cloning ranges over the page map in randomized order, but the
// clone must always be an exact image of the source, and releasing it must
// leave the source intact.
func TestCloneOrderFree(t *testing.T) {
	src := NewSpace()
	for p := uint64(0); p < 10; p++ {
		data := make([]byte, 32)
		for i := range data {
			data[i] = byte(p*31 + uint64(i))
		}
		src.WriteBytes(p*PageSize+uint64(p), data)
	}
	render := func(s *Space) string {
		out := ""
		buf := make([]byte, PageSize)
		s.Pages(func(id PageID, _ *Page) {
			s.ReadBytes(PageAddr(id), buf)
			out += fmt.Sprintf("%d:%x;", id, buf)
		})
		return out
	}
	want := render(src)
	for rep := 0; rep < 30; rep++ {
		c := src.Clone()
		if got := render(c); got != want {
			t.Fatalf("rep %d: clone image diverged", rep)
		}
		if len(c.pages) != len(src.pages) {
			t.Fatalf("rep %d: page count %d != %d", rep, len(c.pages), len(src.pages))
		}
		c.Release()
		if got := render(src); got != want {
			t.Fatalf("rep %d: releasing the clone corrupted the source", rep)
		}
	}
}
