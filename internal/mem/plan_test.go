package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomMods builds an ordered modification-list sequence with heavy overlap:
// random addresses within a few pages, random lengths, runs that straddle
// page boundaries, and deliberately duplicated addresses so last-writer-wins
// actually matters.
func randomMods(r *rand.Rand, lists, maxRuns int) [][]Run {
	mods := make([][]Run, lists)
	val := byte(1)
	for i := range mods {
		n := r.Intn(maxRuns + 1)
		runs := make([]Run, 0, n)
		for j := 0; j < n; j++ {
			addr := uint64(r.Intn(4 * PageSize))
			length := 1 + r.Intn(300) // up to ~7% of a page, often straddling
			data := make([]byte, length)
			for k := range data {
				data[k] = val
				val++
				if val == 0 {
					val = 1
				}
			}
			runs = append(runs, Run{Addr: addr, Data: data})
		}
		mods[i] = runs
	}
	return mods
}

// patchRuns copies a patch's runs — the maximal stretches of set mask bits —
// out of its staging buffer, in address order. Nothing outside the tests
// needs a patch as a run list; this is the one place that reads it as one.
func patchRuns(p *PagePatch) []Run {
	var runs []Run
	for b := 0; b < PageSize; b++ {
		if p.mask[b/64]>>(b%64)&1 == 0 {
			continue
		}
		start := b
		for b < PageSize && p.mask[b/64]>>(b%64)&1 != 0 {
			b++
		}
		runs = append(runs, Run{Addr: PageAddr(p.page) + uint64(start), Data: append([]byte(nil), p.buf[start:b]...)})
	}
	return runs
}

// TestPlanEquivalentToSequentialApply is the core soundness property: for any
// ordered modification-list sequence, building a plan and applying it once
// leaves memory byte-identical to applying every list in order with
// ApplyRuns. This is what licenses substituting the plan on the acquire path.
func TestPlanEquivalentToSequentialApply(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mods := randomMods(r, 1+r.Intn(8), 12)

		seq := NewSpace()
		for _, runs := range mods {
			seq.ApplyRuns(runs)
		}

		planned := NewSpace()
		plan := BuildPlan(mods)
		planned.ApplyPlan(plan)
		plan.Release()

		ok := seq.Hash() == planned.Hash()
		seq.Release()
		planned.Release()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPlanSharedAcrossSpaces checks immutability under application: the same
// plan applied to several spaces (plan sharing across blocked waiters) gives
// every space the identical final image, and a re-application is idempotent.
// It then releases the plan and builds another, smaller one over different
// pages — which the pool serves from the released plan and its patches — and
// demands that nothing carried over: no patch for a page only the first plan
// wrote (a stale page-index entry), no byte outside the new runs (a stale
// extent), no leftover in the counters.
func TestPlanSharedAcrossSpaces(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	mods := randomMods(r, 6, 10)
	plan := BuildPlan(mods)

	var hashes []uint64
	for i := 0; i < 4; i++ {
		s := NewSpace()
		s.ApplyPlan(plan)
		if i == 0 {
			s.ApplyPlan(plan) // idempotent
		}
		hashes = append(hashes, s.Hash())
		s.Release()
	}
	for _, h := range hashes[1:] {
		if h != hashes[0] {
			t.Fatalf("shared plan produced diverging images: %#x vs %#x", hashes[0], h)
		}
	}
	plan.Release()

	// randomMods writes pages 0–4; the second plan writes two bytes of page 2
	// and three of page 9.
	second := [][]Run{{
		{Addr: PageAddr(2) + 100, Data: []byte{1, 2}},
		{Addr: PageAddr(9) + 7, Data: []byte{3, 4, 5}},
	}}
	for round := 0; round < 3; round++ {
		plan = BuildPlan(second)
		if plan.InputRuns != 2 || plan.InputBytes != 5 || plan.UniqueBytes != 5 {
			t.Fatalf("round %d: rebuilt plan counts %d runs / %d in / %d unique, want 2 / 5 / 5",
				round, plan.InputRuns, plan.InputBytes, plan.UniqueBytes)
		}
		if len(plan.Patches) != 2 || plan.Patches[0].page != 2 || plan.Patches[1].page != 9 {
			t.Fatalf("round %d: rebuilt plan has %d patches, want pages 2 and 9", round, len(plan.Patches))
		}
		got, want := NewSpace(), NewSpace()
		got.ApplyPlan(plan)
		want.ApplyRuns(second[0])
		if got.Hash() != want.Hash() {
			t.Fatalf("round %d: rebuilt plan writes bytes its runs do not carry", round)
		}
		got.Release()
		want.Release()
		plan.Release()
	}
}

// TestAddRunsByPageSplitsStraddlers: a run across a page boundary lands as
// two pieces, one per page, each asked for once.
func TestAddRunsByPageSplitsStraddlers(t *testing.T) {
	patches := map[PageID]*PagePatch{}
	var asked []PageID
	AddRunsByPage([]Run{
		{Addr: PageSize - 2, Data: []byte{1, 2, 3, 4}},
		{Addr: PageSize + 8, Data: []byte{5}},
	}, func(id PageID) *PagePatch {
		asked = append(asked, id)
		if patches[id] == nil {
			patches[id] = NewPagePatch(id)
		}
		return patches[id]
	})
	if !pageIDsEqual(asked, []PageID{0, 1}) {
		t.Fatalf("patchFor asked for %v, want [0 1]", asked)
	}
	p0, p1 := patchRuns(patches[0]), patchRuns(patches[1])
	if !runsEqual(p0, []Run{{Addr: PageSize - 2, Data: []byte{1, 2}}}) {
		t.Fatalf("page 0 split wrong: %+v", p0)
	}
	if !runsEqual(p1, []Run{{Addr: PageSize, Data: []byte{3, 4}}, {Addr: PageSize + 8, Data: []byte{5}}}) {
		t.Fatalf("page 1 split wrong: %+v", p1)
	}
	patches[0].Release()
	patches[1].Release()
}

// TestPlanInvariants checks the structural guarantees the apply paths rely
// on: pages ascend, each page's runs are address-sorted, gap-separated and
// within the page, and the byte accounting is consistent.
func TestPlanInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mods := randomMods(r, 1+r.Intn(6), 10)
		plan := BuildPlan(mods)

		var wantInRuns, wantInBytes uint64
		for _, runs := range mods {
			for _, run := range runs {
				wantInRuns++
				wantInBytes += uint64(len(run.Data))
			}
		}
		if plan.InputRuns != wantInRuns || plan.InputBytes != wantInBytes {
			t.Errorf("seed %d: input accounting %d/%d, want %d/%d",
				seed, plan.InputRuns, plan.InputBytes, wantInRuns, wantInBytes)
			return false
		}
		var unique uint64
		for i, pp := range plan.Patches {
			if i > 0 && plan.Patches[i-1].page >= pp.page {
				t.Errorf("seed %d: pages not ascending at %d", seed, i)
				return false
			}
			base := PageAddr(pp.page)
			// The runs must be address-sorted, in-page and gap-separated
			// (coalescing guarantees a strict gap, not mere disjointness).
			runs := patchRuns(pp)
			for j, run := range runs {
				if len(run.Data) == 0 {
					t.Errorf("seed %d: empty run", seed)
					return false
				}
				if run.Addr < base || run.End() > base+PageSize {
					t.Errorf("seed %d: run escapes page", seed)
					return false
				}
				if j > 0 && runs[j-1].End() >= run.Addr {
					t.Errorf("seed %d: runs not gap-separated", seed)
					return false
				}
				unique += uint64(len(run.Data))
			}
		}
		// Everything is read before the release: a released plan is dead.
		planUnique, planInput := plan.UniqueBytes, plan.InputBytes
		plan.Release()
		if planUnique != unique {
			t.Errorf("seed %d: UniqueBytes %d, runs carry %d", seed, planUnique, unique)
			return false
		}
		if planUnique > planInput {
			t.Errorf("seed %d: unique %d > input %d", seed, planUnique, planInput)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPagePatchLastWriterWins checks byte-level LWW and that — unlike the
// dirty tracker — a patch stays precise past maxExtentsPerPage fragments.
func TestPagePatchLastWriterWins(t *testing.T) {
	p := NewPagePatch(3)
	defer p.Release()
	base := PageAddr(3)

	// 2*maxExtentsPerPage disjoint single-byte writes at even offsets: a
	// dirtyPage would have degraded to 64-byte chunks long ago.
	for i := 0; i < 2*maxExtentsPerPage; i++ {
		p.AddRun(Run{Addr: base + uint64(4*i), Data: []byte{byte(i + 1)}})
	}
	// Overwrite the first byte: later writers win.
	p.AddRun(Run{Addr: base, Data: []byte{0xAA}})

	if got := p.UniqueBytes(); got != uint64(2*maxExtentsPerPage) {
		t.Fatalf("UniqueBytes = %d, want %d (degraded to superset?)", got, 2*maxExtentsPerPage)
	}
	if p.rawRuns != uint64(2*maxExtentsPerPage)+1 || p.rawBytes != uint64(2*maxExtentsPerPage)+1 {
		t.Fatalf("raw accounting = %d runs / %d bytes", p.rawRuns, p.rawBytes)
	}
	runs := patchRuns(p)
	if len(runs) != 2*maxExtentsPerPage {
		t.Fatalf("materialized %d runs, want %d precise single-byte runs", len(runs), 2*maxExtentsPerPage)
	}
	if runs[0].Addr != base || runs[0].Data[0] != 0xAA {
		t.Fatalf("first byte = %#x at %#x, want last writer 0xAA at base", runs[0].Data[0], runs[0].Addr)
	}

	s := NewSpace()
	defer s.Release()
	s.ApplyPatch(p)
	if got := s.Load8(base); got != 0xAA {
		t.Fatalf("ApplyPatch: byte 0 = %#x, want 0xAA", got)
	}
	if got := s.Load8(base + 4); got != 2 {
		t.Fatalf("ApplyPatch: byte 4 = %#x, want 2", got)
	}
	if got := s.Load8(base + 1); got != 0 {
		t.Fatalf("ApplyPatch: untouched byte 1 = %#x, want 0", got)
	}

	// Overlapping multi-pend, single flush (the lazy-writes path): several
	// propagations' overlapping runs absorbed into one patch and applied once
	// must leave the page as list-order ApplyRuns does, and UniqueBytes — the
	// flush's virtual-time charge — must count each destination byte once.
	r := rand.New(rand.NewSource(11))
	pend := NewPagePatch(3)
	defer pend.Release()
	seq, flushed := NewSpace(), NewSpace()
	defer seq.Release()
	defer flushed.Release()
	var touched [PageSize]bool
	var distinct uint64
	for _, runs := range randomMods(r, 8, 12) {
		for _, run := range runs {
			run.Addr = base + run.Addr%(PageSize-uint64(len(run.Data))) // confine to page 3
			pend.AddRun(run)
			seq.ApplyRuns([]Run{run})
			for i := range run.Data {
				if off := run.Addr - base + uint64(i); !touched[off] {
					touched[off] = true
					distinct++
				}
			}
		}
	}
	flushed.ApplyPatch(pend)
	if seq.Hash() != flushed.Hash() {
		t.Fatal("multi-pend single flush differs from list-order ApplyRuns")
	}
	if got := pend.UniqueBytes(); got != distinct {
		t.Fatalf("multi-pend UniqueBytes = %d, want %d distinct destination bytes", got, distinct)
	}
}

// TestSnapshotPooling asserts the snapshot buffers actually recycle: a
// snapshot/release round trip through the pool must not allocate a fresh
// page buffer each time.
func TestSnapshotPooling(t *testing.T) {
	s := NewSpace()
	defer s.Release()
	s.Store8(123, 7) // materialize page 0
	// Warm the pool.
	PutPageBuf(s.Snapshot(0))
	allocs := testing.AllocsPerRun(100, func() {
		PutPageBuf(s.Snapshot(0))
	})
	if allocs >= 1 {
		t.Fatalf("snapshot round trip allocates %.1f objects/op; pooling broken", allocs)
	}
}

// BenchmarkSnapshotPool measures the pooled snapshot round trip; run with
// -benchmem to see the zero-allocation steady state.
func BenchmarkSnapshotPool(b *testing.B) {
	s := NewSpace()
	defer s.Release()
	s.Store8(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PutPageBuf(s.Snapshot(0))
	}
}

// stripMods is 8 writers × full coverage of 2 pages in 256-byte strips.
func stripMods() [][]Run {
	var mods [][]Run
	for w := 0; w < 8; w++ {
		var runs []Run
		for off := uint64(0); off < 2*PageSize; off += 256 {
			data := make([]byte, 256)
			for k := range data {
				data[k] = byte(w + k)
			}
			runs = append(runs, Run{Addr: off, Data: data})
		}
		mods = append(mods, runs)
	}
	return mods
}

// fragmentedMods is the traffic fft's propagation was measured to carry: 4
// writers over 8 pages, every written page some 270 runs of 11–15 bytes
// separated by 1–3 bytes. Counted at ad3c21f with counters added to a scratch
// copy of the propagation path, fft at SizeMedium with 4 threads,
// per execution: 396 propagated slices carrying 208,280 runs and 2,800,768
// bytes — 526 runs a slice, 13.4 bytes a run — because a butterfly's new
// float64 shares a byte or two with the old one often enough that the
// byte-granular diff cuts a run every value or two. Coalescing does not mend
// it: the 77 plans pended held 681 page patches of 229 runs and 3,180 bytes
// each, 22.7% of the input bytes overwritten within their plan, and 518 of
// those patches met a pending patch already holding 94 runs.
//
// Where the runs break is a property of the data, so a page's cell
// boundaries are the same for every writer and every seed, and the seed only
// decides by how much each run falls short of its cell. A writer covers two
// and a half of the eight pages, so about a fifth of the bytes are written
// twice, and its runs share one payload block, as a published slice's do.
func fragmentedMods(seed int64) [][]Run {
	r := rand.New(rand.NewSource(seed))
	var mods [][]Run
	for w := 0; w < 4; w++ {
		var runs []Run
		block := make([]byte, 0, 3*PageSize)
		for k := 0; k < 3; k++ {
			page := uint64(2*w+k) % 8
			cells := rand.New(rand.NewSource(int64(page)))
			end := PageSize
			if k == 2 {
				end = PageSize / 2
			}
			for off := 0; ; {
				cell := 14 + cells.Intn(3)
				if off+cell > end {
					break
				}
				n := cell - 1 - r.Intn(3)
				for i := 0; i < n; i++ {
					block = append(block, byte(w+i))
				}
				runs = append(runs, Run{Addr: page*PageSize + uint64(off), Data: block[len(block)-n : len(block) : len(block)]})
				off += cell
			}
		}
		mods = append(mods, runs)
	}
	return mods
}

// BenchmarkBuildPlan measures plan construction over overlapping run lists.
func BenchmarkBuildPlan(b *testing.B) {
	for _, shape := range []struct {
		name string
		mods [][]Run
	}{
		{"strips", stripMods()},
		{"fragmented", fragmentedMods(1)},
	} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BuildPlan(shape.mods).Release()
			}
		})
	}
}

// BenchmarkPatchSparse is the life of a patch on water_ns and kv_server: a
// few 8-byte runs, counted, flushed, released. It is the shape the mask's word
// summary exists for: with one run, a walk of all 64 words per operation shows
// here first; with three runs spread over the page, so does a walk of the
// span between the first and the last (tried: 60 → 195 ns/op).
func BenchmarkPatchSparse(b *testing.B) {
	for _, shape := range []struct {
		name string
		offs []uint64
	}{
		{"one", []uint64{1000}},
		{"spread", []uint64{8, 2000, 4000}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			s := NewSpace()
			defer s.Release()
			data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
			var sink uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := NewPagePatch(1)
				for _, off := range shape.offs {
					p.AddRun(Run{Addr: PageAddr(1) + off, Data: data})
				}
				sink += p.UniqueBytes()
				s.ApplyPatch(p)
				p.Release()
			}
			if want := uint64(8 * len(shape.offs) * b.N); sink != want {
				b.Fatalf("patches counted %d unique bytes, want %d", sink, want)
			}
		})
	}
}
