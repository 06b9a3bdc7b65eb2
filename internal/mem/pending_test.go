package mem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// A PendingPage against its reference model: the run lists pended since the
// last flush, applied at the flush in order, run after run, by ApplyRuns —
// what propagation without lazy writes does — with the distinct, raw-run and
// raw-byte counts taken from the lists themselves. A twin record, pended the
// same lists, is walked by Discard at every flush: an exiting thread's charge
// must be its flush's, count for count.

// A pending program is a sequence of 6-byte operations — kind, offset,
// length, the middle two little-endian, and a shape byte — over one live
// record:
//
//	kind%8  0–2  pend a list shaped as a diff emits it: shape%16 runs (none
//	             at all for 0) of 1 + length%48 bytes from offset, each
//	             1 + shape/16 bytes after the one before, cut at the page end
//	        3–5  pend one run at offset, length%(PageSize+1) clamped to the page
//	        6    flush, compare, and start a new record for the same page
//	        7    release the record unflushed and start one for page shape%3
//
// Whatever is still pended at the end is flushed and compared.
const pendOpLen = 6

func pendOp(kind byte, off, n int, shape byte) []byte {
	op := []byte{kind, 0, 0, 0, 0, shape}
	binary.LittleEndian.PutUint16(op[1:], uint16(off))
	binary.LittleEndian.PutUint16(op[3:], uint16(n))
	return op
}

// pendRuns decodes a pend operation into its run list over page, drawing
// byte values from next.
func pendRuns(page PageID, op []byte, next func() byte) []Run {
	off := int(binary.LittleEndian.Uint16(op[1:])) % PageSize
	n := int(binary.LittleEndian.Uint16(op[3:]))
	shape := int(op[5])
	var runs []Run
	add := func(at, l int) {
		data := make([]byte, l)
		for i := range data {
			data[i] = next()
		}
		runs = append(runs, Run{Addr: PageAddr(page) + uint64(at), Data: data})
	}
	if op[0]%8 <= 2 {
		for k, at := 0, off; k < shape%16 && at < PageSize; k++ {
			l := min(1+n%48, PageSize-at)
			add(at, l)
			at += l + 1 + shape/16
		}
	} else if l := min(n%(PageSize+1), PageSize-off); l > 0 {
		add(off, l)
	}
	return runs
}

// runPendingProgram drives a record and its model through prog. Poison-on-
// recycle is on throughout, so a folded patch's staging buffer holds
// patchPoison wherever the patch has not written.
func runPendingProgram(t *testing.T, prog []byte) {
	t.Helper()
	SetPageBufPoison(true)
	defer SetPageBufPoison(false)
	got, ref := NewSpace(), NewSpace()
	defer got.Release()
	defer ref.Release()
	for p := PageID(0); p < 3; p++ {
		for _, s := range []*Space{got, ref} {
			page := s.writablePage(p).Data[:]
			for i := range page {
				page[i] = patchFill
			}
		}
	}
	val := byte(0)
	next := func() byte {
		for {
			val++
			if val != 0 && val != patchFill && val != patchPoison {
				return val
			}
		}
	}

	page := PageID(0)
	rec, twin := NewPendingPage(page), NewPendingPage(page)
	var lists [][]Run
	flush := func(where string) {
		t.Helper()
		var wantRuns, wantRaw, wantDistinct uint64
		var written [PageSize]bool
		for _, runs := range lists {
			ref.ApplyRuns(runs)
			for _, r := range runs {
				wantRuns++
				wantRaw += uint64(len(r.Data))
				for i := range r.Data {
					written[int(r.Addr&PageMask)+i] = true
				}
			}
		}
		for _, w := range written {
			if w {
				wantDistinct++
			}
		}
		runs, raw, distinct := got.ApplyPending(rec)
		if runs != wantRuns || raw != wantRaw || distinct != wantDistinct {
			t.Fatalf("%s: flush counted %d runs / %d bytes / %d distinct, model %d / %d / %d",
				where, runs, raw, distinct, wantRuns, wantRaw, wantDistinct)
		}
		if r, b, d := twin.Discard(); r != runs || b != raw || d != distinct {
			t.Fatalf("%s: the walk counted %d runs / %d bytes / %d distinct, the flush %d / %d / %d",
				where, r, b, d, runs, raw, distinct)
		}
		g, w := got.PageData(page), ref.PageData(page)
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: page byte %d = %#x, model %#x", where, i, g[i], w[i])
			}
		}
		lists = nil
	}
	for step := 0; len(prog) >= pendOpLen; step, prog = step+1, prog[pendOpLen:] {
		where := fmt.Sprintf("step %d (kind %d)", step, prog[0]%8)
		switch kind := prog[0] % 8; {
		case kind <= 5:
			runs := pendRuns(page, prog, next)
			rec.Pend(runs)
			twin.Pend(runs)
			lists = append(lists, runs)
			if want := len(lists) % PendFold; rec.Len() != want || (len(lists) >= PendFold) != (rec.folded != nil) {
				t.Fatalf("%s: %d lists pended leave %d references and folded patch %v, want %d references",
					where, len(lists), rec.Len(), rec.folded != nil, want)
			}
		case kind == 6:
			flush(where)
			rec, twin = NewPendingPage(page), NewPendingPage(page)
		default:
			rec.Release()
			twin.Release()
			lists = nil
			page = PageID(prog[5] % 3)
			rec, twin = NewPendingPage(page), NewPendingPage(page)
			if rec.Len() != 0 || rec.folded != nil {
				t.Fatalf("%s: a re-issued record holds %d references and folded patch %v", where, rec.Len(), rec.folded != nil)
			}
		}
	}
	flush("at the end")
}

// randomPendingProgram draws pends biased to what the runtime pends — diff-
// shaped lists of short runs, single runs — overlapping one another, with
// enough of them between flushes to fold.
func randomPendingProgram(r *rand.Rand, ops int) []byte {
	var prog []byte
	for i := 0; i < ops; i++ {
		off, n := r.Intn(PageSize), 1+r.Intn(40)
		switch r.Intn(4) {
		case 0:
			off = patchEdgeOffs[r.Intn(len(patchEdgeOffs))]
		case 1:
			n = patchEdgeLens[r.Intn(len(patchEdgeLens))]
		}
		kind := byte(r.Intn(6))
		switch r.Intn(40) {
		case 0, 1:
			kind = 6
		case 2:
			kind = 7
		}
		prog = append(prog, pendOp(kind, off, n, byte(r.Intn(256)))...)
	}
	return prog
}

// TestPendingPageMatchesModel: random programs, most of them long enough to
// fold at least once, leave the page, the distinct count and the raw counts
// as the model's.
func TestPendingPageMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for i := 0; i < 150; i++ {
		runPendingProgram(t, randomPendingProgram(r, 1+r.Intn(3*PendFold)))
	}
}

// FuzzPendingPage is the same driver reading its operations from the fuzz
// input. The seed corpus under testdata/fuzz/FuzzPendingPage holds the cases
// the flush's two rules turn on — a run a later one covers is skipped, one a
// later one overlaps is copied around it — and the fold, by name.
func FuzzPendingPage(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4*PendFold*pendOpLen {
			prog = prog[:4*PendFold*pendOpLen]
		}
		runPendingProgram(t, prog)
	})
}

// TestPendRunsByPage: consecutive runs on one page reach that page's record
// as one sub-slice of the caller's list — a reference, not a copy — and a run
// across a page boundary as one piece per page, the second in a fresh list
// with the runs after it.
func TestPendRunsByPage(t *testing.T) {
	runs := []Run{
		{Addr: PageAddr(2) + 8, Data: []byte{1}},
		{Addr: PageAddr(2) + 16, Data: []byte{2, 3}},
		{Addr: PageAddr(3) - 2, Data: []byte{4, 5, 6, 7}},
		{Addr: PageAddr(3) + 9, Data: []byte{8}},
		{Addr: PageAddr(5), Data: []byte{9}},
	}
	recs := map[PageID]*PendingPage{}
	var asked []PageID
	PendRunsByPage(runs, func(id PageID) *PendingPage {
		asked = append(asked, id)
		if recs[id] == nil {
			recs[id] = NewPendingPage(id)
		}
		return recs[id]
	})
	if !pageIDsEqual(asked, []PageID{2, 2, 3, 5}) {
		t.Fatalf("records asked for %v, want [2 2 3 5]", asked)
	}
	if refs := recs[2].refs; len(refs) != 2 || len(refs[0]) != 2 || unsafe.SliceData(refs[0]) != &runs[0] || cap(refs[0]) != 2 {
		t.Fatalf("page 2's runs are not one capped sub-slice of the list: %v", refs)
	}
	if got := recs[2].refs[1]; !runsEqual(got, []Run{{Addr: PageAddr(2) + PageSize - 2, Data: []byte{4, 5}}}) {
		t.Fatalf("page 2's piece of the straddler: %v", got)
	}
	if refs := recs[3].refs; len(refs) != 1 || !runsEqual(refs[0], []Run{{Addr: PageAddr(3), Data: []byte{6, 7}}, runs[3]}) {
		t.Fatalf("page 3's references: %v", refs)
	}
	for _, rec := range recs {
		rec.Release()
	}
}

// BenchmarkLazyFlushPage is one fft page's life under lazy writes: four
// writers' fragmented run lists pended onto it — two of them reach the page,
// 400 or so short runs — then flushed newest first (apply), or only counted,
// as a thread other than 0 does at its exit (discard). The walk is meant to
// cost less than half the flush.
func BenchmarkLazyFlushPage(b *testing.B) {
	mods := fragmentedMods(1)
	var lists [][]Run
	for _, runs := range mods {
		var onPage []Run
		for _, r := range runs {
			if PageOf(r.Addr) == 2 {
				onPage = append(onPage, r)
			}
		}
		lists = append(lists, onPage)
	}
	s := NewSpace()
	defer s.Release()
	for _, end := range []struct {
		name string
		fn   func(*PendingPage)
	}{
		{"apply", func(p *PendingPage) { s.ApplyPending(p) }},
		{"discard", func(p *PendingPage) { p.Discard() }},
	} {
		b.Run(end.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := NewPendingPage(2)
				for _, runs := range lists {
					p.Pend(runs)
				}
				end.fn(p)
			}
		})
	}
}
