package slicestore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rfdet/internal/mem"
	"rfdet/internal/vclock"
)

func mkSlice(tid int32, time vclock.VC, nbytes int) *Slice {
	return &Slice{
		Tid:   tid,
		Time:  time,
		Mods:  []mem.Run{{Addr: 0, Data: make([]byte, nbytes)}},
		Bytes: uint64(nbytes),
	}
}

func TestCommitAccountsUsage(t *testing.T) {
	st := NewStore(1 << 20)
	s := mkSlice(0, vclock.VC{1}, 100)
	if st.Commit(s) {
		t.Fatal("tiny commit should not trigger GC")
	}
	if st.Used() != s.Cost() {
		t.Fatalf("Used = %d, want %d", st.Used(), s.Cost())
	}
	if st.Live() != 1 {
		t.Fatal("bookkeeping wrong")
	}
}

func TestSnapshotAccounting(t *testing.T) {
	st := NewStore(0)
	st.AllocSnapshot()
	st.AllocSnapshot()
	if st.Used() != 2*mem.PageSize {
		t.Fatalf("Used = %d", st.Used())
	}
	st.FreeSnapshot()
	if st.Used() != mem.PageSize {
		t.Fatalf("Used = %d", st.Used())
	}
	if st.HighWater() != 2*mem.PageSize {
		t.Fatalf("HighWater = %d", st.HighWater())
	}
}

func TestGCThreshold(t *testing.T) {
	// Capacity 100 KiB, threshold 90%: commits must report needGC once
	// usage crosses 90 KiB.
	st := NewStore(100 * 1024)
	triggered := false
	for i := 0; i < 100; i++ {
		if st.Commit(mkSlice(0, vclock.VC{uint64(i)}, 1024)) {
			triggered = true
			break
		}
	}
	if !triggered {
		t.Fatal("GC threshold never triggered")
	}
}

func TestCollectReclaimsOnlyDominated(t *testing.T) {
	st := NewStore(0)
	old := mkSlice(0, vclock.VC{1, 0}, 10)
	mid := mkSlice(1, vclock.VC{0, 2}, 10)
	young := mkSlice(0, vclock.VC{3, 3}, 10)
	st.Commit(old)
	st.Commit(mid)
	st.Commit(young)
	// Frontier [2,2]: old (≤) is garbage, mid (0,2 ≤ 2,2) is garbage,
	// young is not.
	n := st.Collect(vclock.VC{2, 2})
	if n != 2 {
		t.Fatalf("collected %d, want 2", n)
	}
	if st.Live() != 1 {
		t.Fatalf("live = %d, want 1", st.Live())
	}
	if st.GCCount() != 1 {
		t.Fatalf("GCCount = %d", st.GCCount())
	}
	if st.Used() != young.Cost() {
		t.Fatalf("Used = %d, want %d", st.Used(), young.Cost())
	}
}

// TestCollectNeverReclaimsNeeded is the GC safety property: a slice
// concurrent with (or newer than) the frontier survives.
func TestCollectNeverReclaimsNeeded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st := NewStore(0)
		mk := func() vclock.VC {
			v := make(vclock.VC, 3)
			for i := range v {
				v[i] = uint64(r.Intn(5))
			}
			return v
		}
		var slices []*Slice
		for i := 0; i < 30; i++ {
			s := mkSlice(int32(i%3), mk(), 8)
			slices = append(slices, s)
			st.Commit(s)
		}
		frontier := mk()
		st.Collect(frontier)
		// Every survivor must not be ≤ frontier; every collected slice must
		// be ≤ frontier.
		for _, s := range slices {
			want := !s.Time.Leq(frontier)
			got := false
			for id := range st.slices {
				if st.slices[id] == s {
					got = true
				}
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTrimList(t *testing.T) {
	a := mkSlice(0, vclock.VC{1}, 1)
	b := mkSlice(0, vclock.VC{5}, 1)
	c := mkSlice(1, vclock.VC{0, 4}, 1)
	list := []*Slice{a, b, c}
	out := TrimList(list, vclock.VC{2, 2})
	if len(out) != 2 || out[0] != b || out[1] != c {
		t.Fatalf("TrimList kept %v", out)
	}
	// The freed tail must be zeroed so the GC can reclaim.
	if list[2] != nil {
		t.Fatal("trimmed tail not zeroed")
	}
}

func TestCostIncludesOverheads(t *testing.T) {
	s := mkSlice(0, vclock.VC{1}, 100)
	if s.Cost() <= 100 {
		t.Fatalf("Cost = %d should include per-slice and per-run overhead", s.Cost())
	}
}

func TestDefaults(t *testing.T) {
	st := NewStore(0)
	if st.Capacity() != DefaultCapacity {
		t.Fatalf("default capacity = %d", st.Capacity())
	}
	if st.gcThreshold != DefaultCapacity*DefaultGCThresholdPct/100 {
		t.Fatalf("default threshold = %d", st.gcThreshold)
	}
}

// TestGCThresholdRounding is the regression test for the capacity/100*pct
// truncation bug: dividing before multiplying floored the quotient first, so
// a 150-byte store at 90% got threshold 1*90 = 90 instead of 135, and any
// capacity under 100 got threshold 0 — every commit triggered a GC pass.
func TestGCThresholdRounding(t *testing.T) {
	cases := []struct {
		capacity uint64
		want     uint64
	}{
		{150, 135},  // old code: 150/100*90 = 90
		{50, 45},    // old code: 50/100*90 = 0 → GC on every commit
		{199, 179},  // old code: 199/100*90 = 90
		{1000, 900}, // multiple of 100: unchanged
	}
	for _, c := range cases {
		st := NewStore(c.capacity)
		if got := st.gcThreshold; got != c.want {
			t.Errorf("NewStore(%d): threshold = %d, want %d", c.capacity, got, c.want)
		}
	}
	// Behavioral consequence: a 108-cost commit into a 150-byte store sits
	// between the old (90) and fixed (135) thresholds, so it must NOT
	// demand a GC pass anymore.
	st := NewStore(150)
	s := mkSlice(0, vclock.VC{1}, 20)
	if c := s.Cost(); c <= 90 || c >= 135 {
		t.Fatalf("test slice cost %d out of discriminating range (90, 135)", c)
	}
	if st.Commit(s) {
		t.Fatal("commit below the fixed threshold must not trigger GC")
	}
}

// TestCollectOrderFree: Collect filters the live-slice list in commit order,
// so forty identical stores collected at one frontier must agree on the
// reclaimed count, the surviving set and the usage accounting.
func TestCollectOrderFree(t *testing.T) {
	frontier := vclock.VC{5, 5, 5}
	var wantCount, wantLive int
	var wantUsed uint64
	for rep := 0; rep < 40; rep++ {
		st := NewStore(0)
		var expectSurvive uint64
		for i := 0; i < 24; i++ {
			s := &Slice{
				Tid:   int32(i % 3),
				Mods:  []mem.Run{{Addr: uint64(i) * 64, Data: make([]byte, i+1)}},
				Bytes: uint64(i + 1),
			}
			if i%2 == 0 {
				s.Time = vclock.VC{uint64(i % 6), 1, 2} // ≤ frontier: collectable
			} else {
				s.Time = vclock.VC{9, uint64(i), 0} // above frontier: survives
				expectSurvive += s.Cost()
			}
			st.Commit(s)
		}
		n := st.Collect(frontier)
		if rep == 0 {
			wantCount, wantLive, wantUsed = n, st.Live(), st.Used()
			if wantCount != 12 || wantLive != 12 {
				t.Fatalf("expected 12 collected + 12 live, got %d + %d", wantCount, wantLive)
			}
			if wantUsed != expectSurvive {
				t.Fatalf("used %d != surviving cost %d", wantUsed, expectSurvive)
			}
			continue
		}
		if n != wantCount || st.Live() != wantLive || st.Used() != wantUsed {
			t.Fatalf("rep %d: collect diverged: n=%d live=%d used=%d, want %d/%d/%d",
				rep, n, st.Live(), st.Used(), wantCount, wantLive, wantUsed)
		}
	}
}

// TestCommitGCDecisionIgnoresConcurrentFrees pins the GC trigger to the
// committed slices alone. Page-snapshot charges land off the turn, at moments
// the host schedule picks, so they must neither fire the trigger nor hold it
// back: with snapshots already past the threshold and another goroutine
// freeing and retaking them throughout, a commit asks for a pass exactly when
// the committed slices' cost reaches the threshold.
func TestCommitGCDecisionIgnoresConcurrentFrees(t *testing.T) {
	st := NewStore(100 * 1024)
	for st.Used() <= st.gcThreshold {
		st.AllocSnapshot()
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				st.FreeSnapshot() // the diff path releasing a page
				st.AllocSnapshot()
			}
		}
	}()
	var cost uint64
	var needs []bool
	for i := 0; cost < st.gcThreshold; i++ {
		s := mkSlice(1, vclock.VC{0, uint64(i + 1)}, 1024)
		cost += s.Cost()
		needs = append(needs, st.Commit(s))
	}
	close(stop)
	<-done
	for i, need := range needs {
		if last := i == len(needs)-1; need != last {
			t.Fatalf("commit %d of %d: needGC = %v, want %v (threshold %d)", i+1, len(needs), need, last, st.gcThreshold)
		}
	}
}

// TestCollectPassAccounting: passes that reclaim nothing count as
// GCEmptyPasses, never as GCCount. The subtest keeps the name it had when the
// store was a map.
func TestCollectPassAccounting(t *testing.T) {
	t.Run("map", func(t *testing.T) {
		st := NewStore(1 << 20)
		st.Commit(mkSlice(0, vclock.VC{5}, 64))
		for i := 0; i < 3; i++ {
			if n := st.Collect(vclock.VC{1}); n != 0 {
				t.Fatalf("uncovered Collect reclaimed %d", n)
			}
		}
		if got := st.GCCount(); got != 0 {
			t.Fatalf("GCCount = %d after only empty passes, want 0", got)
		}
		if got := st.EmptyGCCount(); got != 3 {
			t.Fatalf("EmptyGCCount = %d, want 3", got)
		}
		if n := st.Collect(vclock.VC{5}); n != 1 {
			t.Fatalf("covering Collect = %d, want 1", n)
		}
		if st.GCCount() != 1 || st.EmptyGCCount() != 3 {
			t.Fatalf("GCCount = %d, EmptyGCCount = %d after reclaiming pass",
				st.GCCount(), st.EmptyGCCount())
		}
	})
}

// TestCommitDuringCollectAccounting interleaves commits with covering
// Collects: every pass must credit exactly what the commits since the last
// one charged, so the balance lands on zero and a committed cost Collect
// missed shows up as a trigger that fires on an empty store. The store's
// callers serialize Commit and Collect, so one goroutine drives both. The
// subtest keeps the name it had when the store was a map.
func TestCommitDuringCollectAccounting(t *testing.T) {
	t.Run("map", func(t *testing.T) {
		st := NewStore(1 << 30)
		const committers = 4
		const perCommitter = 300
		for i := 0; i < perCommitter; i++ {
			for tid := int32(0); tid < committers; tid++ {
				st.Commit(mkSlice(tid, vclock.VC{uint64(i + 1)}, 128))
				if (i*committers+int(tid))%7 == 6 {
					st.Collect(vclock.VC{^uint64(0)})
					if st.Used() != 0 || st.Live() != 0 {
						t.Fatalf("Used = %d, Live = %d after a covering Collect, want 0", st.Used(), st.Live())
					}
				}
			}
		}
		// One final covering pass reclaims the commits since the last one;
		// the balance must land on exactly zero.
		st.Collect(vclock.VC{^uint64(0)})
		if st.Used() != 0 {
			t.Fatalf("Used = %d after final covering Collect, want 0", st.Used())
		}
		if st.Live() != 0 {
			t.Fatalf("Live = %d, want 0", st.Live())
		}
		if st.sliceBytes != 0 {
			t.Fatalf("committed cost = %d on an empty store, want 0", st.sliceBytes)
		}
	})
}

// TestTrimListReleasesLargeBackingArrays pins the retention bugfix: a trim
// that keeps a small fraction of a huge list must not return a view of the
// original backing array (the waitq retention class from the sharded
// monitor work).
func TestTrimListReleasesLargeBackingArrays(t *testing.T) {
	list := make([]*Slice, 1024)
	for i := range list {
		list[i] = mkSlice(0, vclock.VC{uint64(i + 1)}, 1)
	}
	// Frontier covers all but the last 8: 99%+ trimmed.
	out := TrimList(list, vclock.VC{uint64(len(list) - 8)})
	if len(out) != 8 {
		t.Fatalf("TrimList kept %d, want 8", len(out))
	}
	if cap(out) >= len(list)/4 {
		t.Fatalf("TrimList kept a cap-%d view of the cap-%d input; backing array retained", cap(out), len(list))
	}
	// Small lists and modest trims stay in place: no copy churn on the
	// common path.
	small := []*Slice{mkSlice(0, vclock.VC{1}, 1), mkSlice(0, vclock.VC{9}, 1)}
	kept := TrimList(small, vclock.VC{1})
	if cap(kept) != cap(small) {
		t.Fatal("small-list trim should reslice in place")
	}
}
