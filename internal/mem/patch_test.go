package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// A PagePatch against the obvious model of one: the page's values, which
// bytes have been written, and the two raw counters. The model stays here as
// the reference whatever the patch's own representation becomes.

type patchModel struct {
	page     PageID
	val      [PageSize]byte
	written  [PageSize]bool
	rawRuns  uint64
	rawBytes uint64
}

func (m *patchModel) addRun(off int, data []byte) {
	if len(data) == 0 {
		return
	}
	copy(m.val[off:], data)
	for i := range data {
		m.written[off+i] = true
	}
	m.rawRuns++
	m.rawBytes += uint64(len(data))
}

// runs lists the maximal stretches of written bytes: address-sorted,
// gap-separated, in-page, carrying the last writer's values.
func (m *patchModel) runs() []Run {
	var out []Run
	for i := 0; i < PageSize; {
		if !m.written[i] {
			i++
			continue
		}
		j := i
		for j < PageSize && m.written[j] {
			j++
		}
		out = append(out, Run{Addr: PageAddr(m.page) + uint64(i), Data: append([]byte(nil), m.val[i:j]...)})
		i = j
	}
	return out
}

// absorb takes q's runs in address order, each counted as one raw run.
func (m *patchModel) absorb(q *patchModel) {
	for _, r := range q.runs() {
		m.addRun(int(r.Addr&PageMask), r.Data)
	}
}

func (m *patchModel) unique() uint64 {
	var n uint64
	for _, w := range m.written {
		if w {
			n++
		}
	}
	return n
}

// Values the driver never writes: what the target page holds before an apply,
// and what poison-on-recycle leaves in a staging buffer.
const (
	patchFill   = 0x5A
	patchPoison = 0xDB
)

// checkPatch compares everything a patch answers with the model's answer,
// including ApplyPatch onto a page of patchFill: bytes the model has not
// written must still read patchFill afterwards.
func checkPatch(t *testing.T, where string, s *Space, p *PagePatch, m *patchModel) {
	t.Helper()
	if p.page != m.page {
		t.Fatalf("%s: page = %d, want %d", where, p.page, m.page)
	}
	if got, want := p.UniqueBytes(), m.unique(); got != want {
		t.Fatalf("%s: UniqueBytes = %d, model %d", where, got, want)
	}
	if p.rawRuns != m.rawRuns || p.rawBytes != m.rawBytes {
		t.Fatalf("%s: raw counters %d runs / %d bytes, model %d / %d",
			where, p.rawRuns, p.rawBytes, m.rawRuns, m.rawBytes)
	}
	if got, want := patchRuns(p), m.runs(); !runsEqual(got, want) {
		t.Fatalf("%s: %d runs, model %d:\n got %v\nwant %v", where, len(got), len(want), got, want)
	}
	page := s.writablePage(m.page).Data[:]
	for i := range page {
		page[i] = patchFill
	}
	s.ApplyPatch(p)
	for i, b := range s.PageData(m.page) {
		want := byte(patchFill)
		if m.written[i] {
			want = m.val[i]
		}
		if b != want {
			t.Fatalf("%s: applied byte %d = %#x, model %#x (written %v)", where, i, b, want, m.written[i])
		}
	}
}

// A patch program is a sequence of 5-byte operations — kind, offset, length,
// the last two little-endian — over two live patches p and q:
//
//	kind%8  0–3  p.AddRun at offset%PageSize, length%(PageSize+1) clamped to the page
//	        4–5  q.AddRun, same operands
//	        6    p takes q's runs in address order, one AddRun each; q must come out unchanged
//	        7    Release p (offset even) or q (odd) and re-issue it for page length%3
//
// A trailing fragment shorter than an operation is ignored.
const patchOpLen = 5

func patchOp(kind byte, off, n int) []byte {
	op := []byte{kind, 0, 0, 0, 0}
	binary.LittleEndian.PutUint16(op[1:], uint16(off))
	binary.LittleEndian.PutUint16(op[3:], uint16(n))
	return op
}

// patchOperands decodes the operation at the head of prog: its kind, its
// offset within the page, its raw length operand and, for an AddRun, the
// run's length.
func patchOperands(prog []byte) (kind byte, off, n, runLen int) {
	off = int(binary.LittleEndian.Uint16(prog[1:])) % PageSize
	n = int(binary.LittleEndian.Uint16(prog[3:]))
	return prog[0] % 8, off, n, min(n%(PageSize+1), PageSize-off)
}

// runPatchProgram drives two patches and their models through prog, checking
// after every operation the patches it touched, and both at the end.
// Poison-on-recycle is on throughout, so a staging buffer holds patchPoison
// wherever its patch has not written.
func runPatchProgram(t *testing.T, prog []byte) {
	t.Helper()
	SetPageBufPoison(true)
	defer SetPageBufPoison(false)
	s := NewSpace()
	defer s.Release()

	p, q := NewPagePatch(0), NewPagePatch(0)
	defer func() { p.Release(); q.Release() }()
	pm, qm := new(patchModel), new(patchModel)
	val := byte(0)
	next := func() byte {
		for {
			val++
			if val != 0 && val != patchFill && val != patchPoison {
				return val
			}
		}
	}
	for step := 0; len(prog) >= patchOpLen; step, prog = step+1, prog[patchOpLen:] {
		kind, off, n, runLen := patchOperands(prog)
		checkP, checkQ := false, false
		switch {
		case kind <= 5:
			data := make([]byte, runLen)
			for i := range data {
				data[i] = next()
			}
			pp, m := p, pm
			if kind >= 4 {
				pp, m = q, qm
			}
			pp.AddRun(Run{Addr: PageAddr(m.page) + uint64(off), Data: data})
			m.addRun(off, data)
			checkP, checkQ = kind < 4, kind >= 4
		case kind == 6:
			if pm.page != qm.page {
				continue // a patch takes runs on its own page only
			}
			for _, r := range patchRuns(q) {
				p.AddRun(r)
			}
			pm.absorb(qm)
			checkP, checkQ = true, true
		case off%2 == 0:
			p.Release()
			*pm = patchModel{page: PageID(n % 3)}
			p = NewPagePatch(pm.page)
			checkP = true
		default:
			q.Release()
			*qm = patchModel{page: PageID(n % 3)}
			q = NewPagePatch(qm.page)
			checkQ = true
		}
		if checkP {
			checkPatch(t, fmt.Sprintf("p after step %d (kind %d)", step, kind), s, p, pm)
		}
		if checkQ {
			checkPatch(t, fmt.Sprintf("q after step %d (kind %d)", step, kind), s, q, qm)
		}
	}
	checkPatch(t, "p at the end", s, p, pm)
	checkPatch(t, "q at the end", s, q, qm)
}

// Offsets and lengths that sit on what a per-word mask can get wrong: the
// first and last bit of a word, the word boundary from both sides, the last
// byte and the last word of the page, the whole page, nothing at all.
var (
	patchEdgeOffs = []int{0, 1, 62, 63, 64, 65, 66, 127, 128, 129, PageSize - 129, PageSize - 128, PageSize - 65, PageSize - 64, PageSize - 63, PageSize - 2, PageSize - 1}
	patchEdgeLens = []int{0, 1, 2, 3, 13, 62, 63, 64, 65, 66, 127, 128, 129, PageSize - 1, PageSize}
)

// randomPatchProgram draws operations biased to the edges above, to short
// runs with short gaps (what a byte-granular diff of rewritten floats emits)
// and to runs that touch or nearly touch the one before.
func randomPatchProgram(r *rand.Rand, ops int) []byte {
	var prog []byte
	prevEnd := 0
	for i := 0; i < ops; i++ {
		var off, n int
		switch r.Intn(4) {
		case 0:
			off = patchEdgeOffs[r.Intn(len(patchEdgeOffs))]
		case 1:
			off = (prevEnd + r.Intn(3)) % PageSize // touching, or one or two bytes apart
		default:
			off = r.Intn(PageSize)
		}
		switch r.Intn(4) {
		case 0:
			n = patchEdgeLens[r.Intn(len(patchEdgeLens))]
		case 1:
			n = 1 + r.Intn(PageSize)
		default:
			n = 1 + r.Intn(40)
		}
		kind := byte(r.Intn(6)) // an AddRun, two in three into p
		switch r.Intn(16) {
		case 0, 1:
			kind = 6
		case 2:
			kind = 7
		}
		prog = append(prog, patchOp(kind, off, n)...)
		prevEnd = off + min(n, PageSize-off)
	}
	return prog
}

// TestPagePatchMatchesModel: random edge-biased programs of AddRun, run
// transfer and Release + re-issue leave both patches answering exactly as the model.
func TestPagePatchMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 150; i++ {
		runPatchProgram(t, randomPatchProgram(r, 1+r.Intn(60)))
	}
}

// FuzzPagePatch is the same driver reading its operations from the fuzz
// input. The seed corpus under testdata/fuzz/FuzzPagePatch holds the edge
// cases by name; plain go test runs it.
func FuzzPagePatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 64*patchOpLen {
			prog = prog[:64*patchOpLen]
		}
		runPatchProgram(t, prog)
	})
}

// TestPagePatchEdgeCases states a few answers outright, so that the model is
// not the only thing saying what a patch should read.
func TestPagePatchEdgeCases(t *testing.T) {
	type ext struct{ off, n int }
	for _, c := range []struct {
		name string
		adds []ext
		want []ext
	}{
		{"touching runs read as one", []ext{{10, 5}, {15, 5}}, []ext{{10, 10}}},
		{"touching across a word boundary", []ext{{60, 4}, {64, 4}}, []ext{{60, 8}}},
		{"one byte apart stay two", []ext{{10, 5}, {16, 5}}, []ext{{10, 5}, {16, 5}}},
		{"one byte apart across a word boundary", []ext{{58, 5}, {64, 5}}, []ext{{58, 5}, {64, 5}}},
		{"zero-length run is ignored", []ext{{100, 0}, {7, 1}}, []ext{{7, 1}}},
		{"bits 0, 63, 64 and 65", []ext{{0, 1}, {63, 1}, {64, 1}, {65, 1}}, []ext{{0, 1}, {63, 3}}},
		{"last byte of the page", []ext{{PageSize - 1, 1}}, []ext{{PageSize - 1, 1}}},
		{"whole page", []ext{{0, PageSize}}, []ext{{0, PageSize}}},
		{"whole page over fragments", []ext{{3, 13}, {18, 13}, {0, PageSize}}, []ext{{0, PageSize}}},
		{"descending addresses", []ext{{200, 8}, {100, 8}, {0, 8}}, []ext{{0, 8}, {100, 8}, {200, 8}}},
		{"gap filled in", []ext{{0, 64}, {128, 64}, {64, 64}}, []ext{{0, 192}}},
	} {
		p := NewPagePatch(5)
		var raw uint64
		for i, a := range c.adds {
			p.AddRun(Run{Addr: PageAddr(5) + uint64(a.off), Data: bytes.Repeat([]byte{byte(i + 1)}, a.n)})
			raw += uint64(a.n)
		}
		runs := patchRuns(p)
		var got []ext
		var unique uint64
		for _, r := range runs {
			got = append(got, ext{int(r.Addr - PageAddr(5)), len(r.Data)})
			unique += uint64(len(r.Data))
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: runs %v, want %v", c.name, got, c.want)
		}
		if p.UniqueBytes() != unique || p.rawBytes != raw {
			t.Errorf("%s: UniqueBytes %d (runs carry %d), RawBytes %d (added %d)", c.name, p.UniqueBytes(), unique, p.rawBytes, raw)
		}
		p.Release()
	}
}
