package mem

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"
	"testing/quick"
)

// The slice lifecycle recycles its working storage instead of re-making it
// (DESIGN.md §9, §10). These tests pin the three things that can go wrong
// with that: a budget creeping back up, recycled storage leaking into a
// result, and a value being used or released after it was given back.

// raceBuild reports whether the test binary was built with -race, under
// which sync.Pool deliberately drops a quarter of what it is given and the
// pool-backed budgets below do not hold.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestDirtyCycleAllocatesNothing: once a space has tracked a slice, tracking
// the next one — mark, render the extents, reset — takes the page records
// and read sets, their extent storage attached, back out of their pools,
// on pages written sparsely and past denseChunks alike.
func TestDirtyCycleAllocatesNothing(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	for _, mode := range []struct {
		name   string
		stores int // per page, at 128-byte strides
	}{
		{"sparse", 8},
		{"dense", 2 * denseChunks},
	} {
		s := NewSpace()
		s.SetDirtyTracking(true)
		s.SetReadTracking(true)
		var sink int
		cycle := func() {
			for p := 0; p < 4; p++ {
				for i := 0; i < mode.stores; i++ {
					s.Store8(uint64(p*PageSize+i*128), s.Load8(uint64(p*PageSize+i*128+1)))
				}
			}
			for _, pid := range s.DirtyPages() {
				sink += len(s.DirtyExtentsOf(pid)) + len(s.ReadExtentsOf(pid))
			}
			s.ResetDirty()
			s.ResetReads()
		}
		cycle() // warm: pages resident, records and lists grown
		if got := testing.AllocsPerRun(50, cycle); got != 0 {
			t.Errorf("%s: warm mark/extents/reset cycle allocates %.0f objects, want 0", mode.name, got)
		}
		if sink == 0 {
			t.Fatalf("%s: no extents recorded", mode.name)
		}
		s.Release()
	}
}

// TestAppendDiffAllocatesNothing: the appending diff into storage that has
// already held a diff of the same page allocates nothing.
func TestAppendDiffAllocatesNothing(t *testing.T) {
	snap, cur := make([]byte, PageSize), make([]byte, PageSize)
	var exts []Extent
	for off := uint32(0); off < PageSize; off += 256 {
		exts = append(exts, Extent{Off: off, Len: 16})
		for b := off; b < off+16; b += 2 { // every other byte differs: 8 runs per extent
			cur[b] = 0xff
		}
	}
	runs, buf := AppendDiffPageExtents(nil, make([]byte, 0, ExtentBytes(exts)), 0, snap, cur, exts)
	if len(runs) != 8*len(exts) {
		t.Fatalf("got %d runs, want %d", len(runs), 8*len(exts))
	}
	if got := testing.AllocsPerRun(50, func() {
		runs, buf = AppendDiffPageExtents(runs[:0], buf[:0], 0, snap, cur, exts)
	}); got != 0 {
		t.Errorf("warm appending diff allocates %.0f objects, want 0", got)
	}
}

// TestPlanCycleAllocationBudget: build → apply → release on the shape
// bench/layers.go measures as mem.plan_allocs — 32 slices, each with 16 runs
// of 32 bytes on each of the same 8 pages — is served from the pools. The
// parent allocated 68 objects per cycle; the budget of 2 leaves room for a
// garbage collection emptying the pools mid-measurement.
func TestPlanCycleAllocationBudget(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	r := rand.New(rand.NewSource(3))
	mods := make([][]Run, 32)
	for s := range mods {
		for p := 0; p < 8; p++ {
			for k := 0; k < 16; k++ {
				data := make([]byte, 32)
				data[0] = byte(s)
				mods[s] = append(mods[s], Run{Addr: PageAddr(PageID(p)) + uint64(r.Intn(PageSize-32)), Data: data})
			}
		}
	}
	target := NewSpace()
	defer target.Release()
	cycle := func() {
		p := BuildPlan(mods)
		target.ApplyPlan(p)
		p.Release()
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got > 2 {
		t.Errorf("plan build/apply/release cycle allocates %.0f objects, want ≤ 2", got)
	}
}

// TestAppendDiffMatchesDiffPageExtents is the equivalence the runtime's
// finishSlice rests on: cutting a page's extents into consecutive groups,
// diffing each group into its own region of one shared staging buffer (a
// three-index slice ExtentBytes long, as finishSlice hands them out) and
// concatenating the groups' runs yields exactly DiffPageExtents' runs —
// addresses and bytes — with the staging buffer never reallocated and every
// Run.Data capped at its own length. Snapshots are sometimes truncated, so
// the clamp of TestDiffPageExtentsTruncatedSnapshot is covered, and every
// page with at least three extents is cut into at least three groups.
func TestAppendDiffMatchesDiffPageExtents(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		snap, cur := make([]byte, PageSize), make([]byte, PageSize)
		r.Read(snap)
		copy(cur, snap)
		// Gap-separated extents, some bytes inside them rewritten (often to
		// the value they had: an extent is a superset of what changed).
		var exts []Extent
		for off := uint32(r.Intn(64)); off < PageSize; {
			n := min(uint32(1+r.Intn(200)), PageSize-off)
			exts = append(exts, Extent{Off: off, Len: n})
			for b := off; b < off+n; b++ {
				if r.Intn(3) != 0 {
					cur[b] = byte(r.Intn(4))
				}
			}
			off += n + 1 + uint32(r.Intn(300))
		}
		if r.Intn(3) == 0 {
			snap = snap[:r.Intn(PageSize)]
		}
		want := DiffPageExtents(7, snap, cur, exts)

		groups := 1
		if len(exts) >= 3 {
			groups = 3 + r.Intn(len(exts)-2)
		}
		stage := make([]byte, ExtentBytes(exts))
		var got []Run
		off := 0
		for g := 0; g < groups; g++ {
			part := exts[g*len(exts)/groups : (g+1)*len(exts)/groups]
			end := off + int(ExtentBytes(part))
			runs, buf := AppendDiffPageExtents(nil, stage[off:off:end], 7, snap, cur, part)
			if len(buf) > 0 && &buf[0] != &stage[off] {
				t.Logf("seed %d: group %d outgrew its region", seed, g)
				return false
			}
			got = append(got, runs...)
			off = end
		}
		if !runsEqual(got, want) {
			t.Logf("seed %d: %d groups diverge:\n got %v\nwant %v", seed, groups, got, want)
			return false
		}
		for _, run := range got {
			if cap(run.Data) != len(run.Data) {
				t.Logf("seed %d: run at %#x can be appended into its neighbour", seed, run.Addr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestReleasedValuesAreDead: a released patch has no staging buffer, and a
// second Release of a patch or a plan — which would put one object in its
// pool twice — panics instead.
func TestReleasedValuesAreDead(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	p := NewPagePatch(1)
	p.AddRun(Run{Addr: PageAddr(1), Data: []byte{1}})
	p.Release()
	if p.buf != nil {
		t.Fatal("released patch still has its staging buffer")
	}
	mustPanic("second PagePatch.Release", p.Release)
	mustPanic("AddRun on a released patch", func() { p.AddRun(Run{Addr: PageAddr(1), Data: []byte{1}}) })

	plan := BuildPlan([][]Run{{{Addr: 8, Data: []byte{1, 2}}}})
	plan.Release()
	if len(plan.Patches) != 0 || plan.UniqueBytes != 0 {
		t.Fatal("released plan still describes its patches")
	}
	mustPanic("second WritePlan.Release", plan.Release)
}

// TestPoisonOnRecycle: with the poison hook on, everything given back for
// reuse is overwritten at that moment, so whatever still aliases it reads
// 0xDB — a snapshot buffer, a released patch's staging bytes, the dirty
// tracker's extent list after ResetDirty, caller-owned scratch handed to
// PoisonScratch. With the hook off nothing is touched. A patch's mask is the
// one thing a release must leave clean rather than poisoned: the next owner
// reads it as "nothing written yet".
func TestPoisonOnRecycle(t *testing.T) {
	SetPageBufPoison(true)
	defer SetPageBufPoison(false)
	poison := bytes.Repeat([]byte{0xDB}, PageSize)

	snap := GetPageBuf()
	snap[0] = 1
	PutPageBuf(snap)
	if !bytes.Equal(snap, poison) {
		t.Error("returned snapshot buffer not poisoned")
	}

	// A first life that wrote the first and the last mask word.
	p := NewPagePatch(2)
	p.AddRun(Run{Addr: PageAddr(2), Data: []byte{1, 2, 3}})
	p.AddRun(Run{Addr: PageAddr(2) + PageSize - 3, Data: []byte{4, 5, 6}})
	held := p.buf
	p.Release()
	if !bytes.Equal(held, poison) {
		t.Error("staging buffer held across Release not poisoned")
	}
	if p.written.mask != [maskWords]uint64{} || p.written.words != 0 {
		t.Errorf("released patch keeps mask words %#x … %#x, word summary %#x", p.written.mask[0], p.written.mask[maskWords-1], p.written.words)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second PagePatch.Release did not panic")
			}
		}()
		p.Release()
	}()
	// The pool hands the same patch out again, unless it dropped the put (it
	// does at random under -race); what is asked holds of a fresh one too.
	again := NewPagePatch(7)
	if n, runs := again.UniqueBytes(), patchRuns(again); n != 0 || len(runs) != 0 {
		t.Errorf("re-issued patch reports %d unique bytes and runs %v before anything was added", n, runs)
	}
	again.AddRun(Run{Addr: PageAddr(7) + 100, Data: []byte{9}})
	if n, runs := again.UniqueBytes(), patchRuns(again); n != 1 || len(runs) != 1 || runs[0].Addr != PageAddr(7)+100 {
		t.Errorf("re-issued patch after one 1-byte run: %d unique bytes, runs %v", n, runs)
	}
	again.Release()

	s := NewSpace()
	defer s.Release()
	s.SetDirtyTracking(true)
	s.Store64(64, 1)
	s.Store64(256, 1)
	exts := s.DirtyExtentsOf(0)
	s.ResetDirty()
	for _, e := range exts {
		if e.Off != 0xDBDBDBDB {
			t.Fatalf("dirty extent held across ResetDirty reads %+v, want poison", e)
		}
	}

	scratch := make([]byte, 4, 16)
	PoisonScratch(scratch)
	if !bytes.Equal(scratch[:16], poison[:16]) {
		t.Error("PoisonScratch left spare capacity untouched")
	}
	SetPageBufPoison(false)
	clean := []byte{1, 2, 3}
	PoisonScratch(clean)
	if !bytes.Equal(clean, []byte{1, 2, 3}) {
		t.Error("PoisonScratch wrote with the hook off")
	}
}

// TestRecordSnapshotsGoBackToThePool: a page record owns its snapshot until
// the record is retired, and every way of retiring one — ResetDirty at slice
// end, SetDirtyTracking(false), Release of a space cut off mid-slice — hands
// the buffer to PutPageBuf, which the poison hook makes visible through an
// alias. A snapshot holds the page only on the chunk its store wrote, so that
// chunk is what the test watches; the buffer of the page never stored to comes
// out of the pool poisoned and shows nothing either way. A second SnapshotPage
// of the slice must not happen: the monitors ask SnapshotOf first.
func TestRecordSnapshotsGoBackToThePool(t *testing.T) {
	SetPageBufPoison(true)
	defer SetPageBufPoison(false)
	poison := bytes.Repeat([]byte{0xDB}, PageSize)
	for _, retire := range []struct {
		name string
		do   func(*Space)
	}{
		{"ResetDirty", (*Space).ResetDirty},
		{"SetDirtyTracking(false)", func(s *Space) { s.SetDirtyTracking(false) }},
		{"Release", (*Space).Release},
	} {
		s := NewSpace()
		s.SetDirtyTracking(true)
		var held [][]byte
		for _, id := range []PageID{3, 3 + pageCacheSize, 5} { // two in one slot, one never stored to
			s.SnapshotPage(id)
			if id != 5 {
				s.Store64(PageAddr(id)+8, 7)
			}
			held = append(held, s.SnapshotOf(id))
		}
		if len(s.dirty) != 3 || held[0] == nil || bytes.Equal(held[0][:ChunkSize], poison[:ChunkSize]) ||
			bytes.Equal(held[1][:ChunkSize], poison[:ChunkSize]) {
			t.Fatalf("%s: %d records before retiring, snapshot %x…", retire.name, len(s.dirty), held[0][:4])
		}
		retire.do(s)
		for i, snap := range held[:2] {
			if !bytes.Equal(snap[:ChunkSize], poison[:ChunkSize]) {
				t.Errorf("%s: snapshot %d was not handed back to the pool", retire.name, i)
			}
		}
		if len(s.dirty) != 0 || s.SnapshotOf(3) != nil || !s.CacheConsistent() {
			t.Errorf("%s left records, a snapshot or a slot behind", retire.name)
		}
		s.Release()
	}
}

// TestMaskedMergeWritesOnlyMaskedBytes is the poison wall for the word-wise
// merge. A pending page's flush copies its references' bytes, then merges its
// folded patch eight bytes at a time where no reference wrote, reading on both
// sides bytes no run wrote; this fails if a byte outside every run ever lands.
// pendFold lists of 7-byte runs 41 bytes apart fold into the record's patch,
// whose staging buffer holds 0xDB wherever they have not written; one newer
// list over the whole page (13-byte runs, 2-byte gaps, so every mask word is
// partial) overwrites some of their bytes and leaves others in its gaps; the
// flush lands on a page of zeros.
func TestMaskedMergeWritesOnlyMaskedBytes(t *testing.T) {
	SetPageBufPoison(true)
	defer SetPageBufPoison(false)
	const page = PageID(3)
	var want [PageSize]byte
	var written [PageSize]bool
	var nRuns, nBytes uint64
	add := func(runs []Run, off, n int, v byte) []Run {
		data := bytes.Repeat([]byte{v}, n)
		copy(want[off:], data)
		for i := range data {
			written[off+i] = true
		}
		nRuns++
		nBytes += uint64(n)
		return append(runs, Run{Addr: PageAddr(page) + uint64(off), Data: data})
	}

	pend := newPendingPage(page)
	older := make([][]Run, pendFold)
	for k, off := 0, 5; off+7 <= PageSize; k, off = k+1, off+41 {
		older[k%pendFold] = add(older[k%pendFold], off, 7, 0x80|byte(off)&0x3f)
	}
	for _, runs := range older {
		pend.Pend(runs)
	}
	if pend.Len() != 0 || pend.folded == nil {
		t.Fatalf("%d pends left %d references and folded patch %v, want a fold", pendFold, pend.Len(), pend.folded)
	}
	var newer []Run
	for off := 0; off+13 <= PageSize; off += 15 {
		newer = add(newer, off, 13, 1+byte(off/15)%0x7f) // the later writer
	}
	pend.Pend(newer)

	var union uint64
	for _, w := range written {
		if w {
			union++
		}
	}
	s := NewSpace()
	defer s.Release()
	if runs, raw, distinct := s.applyPending(pend); runs != nRuns || raw != nBytes || distinct != union {
		t.Fatalf("flush counted %d runs / %d bytes / %d distinct, want %d / %d / %d", runs, raw, distinct, nRuns, nBytes, union)
	}
	for i, b := range s.PageData(page) {
		switch {
		case b == want[i]:
		case written[i]:
			t.Fatalf("byte %d = %#x, want its last writer's %#x", i, b, want[i])
		case b == 0xDB:
			t.Fatalf("byte %d: staging-buffer poison landed outside every run", i)
		default:
			t.Fatalf("byte %d = %#x changed outside every run", i, b)
		}
	}
}

// TestStagingRegionsAndPoolsAcrossGoroutines is the -race target for the two
// ways this package's recycled storage meets concurrency: several goroutines
// diffing at once into disjoint regions of one staging buffer (the runtime's
// diff workers), and patches and plans built on one goroutine and released
// on another (a waker builds, the woken thread flushes).
func TestStagingRegionsAndPoolsAcrossGoroutines(t *testing.T) {
	const workers = 8
	snap, cur := make([]byte, PageSize), make([]byte, PageSize)
	per := PageSize / workers
	for i := range cur {
		if i%per != per-1 { // one clean byte ends each worker's extent
			cur[i] = byte(i) | 1
		}
	}
	stage := make([]byte, PageSize)
	results := make([][]Run, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			exts := []Extent{{Off: uint32(w * per), Len: uint32(per - 1)}}
			results[w], _ = AppendDiffPageExtents(nil, stage[w*per:w*per:(w+1)*per], 0, snap, cur, exts)
		}(w)
	}
	wg.Wait()
	var got []Run
	for _, r := range results {
		got = append(got, r...)
	}
	if want := DiffPage(0, snap, cur); !runsEqual(got, want) {
		t.Fatalf("concurrent region diffs diverge from DiffPage: %d runs vs %d", len(got), len(want))
	}

	plans := make(chan *WritePlan)
	go func() {
		for i := 0; i < 64; i++ {
			plans <- BuildPlan([][]Run{got, {{Addr: PageAddr(PageID(i)), Data: []byte{byte(i)}}}})
		}
		close(plans)
	}()
	s := NewSpace()
	defer s.Release()
	for p := range plans {
		s.ApplyPlan(p)
		p.Release()
	}
	if !bytes.Equal(s.PageData(0)[1:], cur[1:]) || s.Load8(PageAddr(63)) != 63 {
		t.Fatal("plans handed across goroutines applied the wrong bytes")
	}
}
