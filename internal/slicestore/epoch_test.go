package slicestore

import (
	"fmt"
	"sync"
	"testing"

	"rfdet/internal/alloc"
	"rfdet/internal/vclock"
)

// bothStores runs a subtest against each Store implementation, so the
// accounting contract is pinned store-independently.
func bothStores(t *testing.T, capacity uint64, thresholdPct, stripes int, fn func(t *testing.T, st Store)) {
	t.Run("map", func(t *testing.T) { fn(t, NewStore(capacity, thresholdPct)) })
	t.Run("epoch", func(t *testing.T) { fn(t, NewEpochStore(capacity, thresholdPct, stripes)) })
}

func TestEpochCommitAccountsUsage(t *testing.T) {
	st := NewEpochStore(1<<20, 90, 2)
	s := mkSlice(0, vclock.VC{1}, 100)
	if st.Commit(s) {
		t.Fatal("tiny commit should not trigger GC")
	}
	if st.Used() != s.Cost() {
		t.Fatalf("Used = %d, want %d", st.Used(), s.Cost())
	}
	if st.Live() != 1 || st.TotalCreated() != 1 {
		t.Fatal("bookkeeping wrong")
	}
	if s.ID == 0 {
		t.Fatal("commit must assign an ID")
	}
}

func TestEpochCommitInternsPayloads(t *testing.T) {
	st := NewEpochStore(1<<20, 90, 1)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	s := mkSlice(0, vclock.VC{1}, 8)
	copy(s.Mods[0].Data, payload)
	orig := &s.Mods[0].Data[0]
	st.Commit(s)
	if &s.Mods[0].Data[0] == orig {
		t.Fatal("Commit did not repoint the payload into the arena")
	}
	for i, b := range s.Mods[0].Data {
		if b != payload[i] {
			t.Fatalf("interned byte %d = %d, want %d", i, b, payload[i])
		}
	}
	if got := st.Metrics().ArenaBytesInterned; got != 8 {
		t.Fatalf("ArenaBytesInterned = %d, want 8", got)
	}
}

// TestEpochCollectDropsCoveredSegments pins the segment fast path: a fully
// covered segment is dropped whole, an uncovered one is retained whole.
func TestEpochCollectDropsCoveredSegments(t *testing.T) {
	st := NewEpochStore(1<<20, 90, 1)
	for i := 0; i < 10; i++ {
		st.Commit(mkSlice(0, vclock.VC{uint64(i + 1)}, 64))
	}
	// Nothing covered: pure retention, no reclaim.
	if n := st.Collect(vclock.VC{0}); n != 0 {
		t.Fatalf("uncovered Collect reclaimed %d", n)
	}
	if st.Live() != 10 {
		t.Fatalf("Live = %d after empty pass", st.Live())
	}
	// Frontier covers everything: the whole log goes at once.
	if n := st.Collect(vclock.VC{100}); n != 10 {
		t.Fatalf("covering Collect reclaimed %d, want 10", n)
	}
	if st.Used() != 0 || st.Live() != 0 {
		t.Fatalf("Used = %d, Live = %d after covering Collect", st.Used(), st.Live())
	}
	if d := st.Metrics().SegmentsDropped; d == 0 {
		t.Fatal("covering Collect dropped no segments")
	}
}

// TestEpochCollectTrimsStraddlingSegments pins budget parity with the map
// store when a segment straddles the frontier: the covered members are
// reclaimed per-slice even though the segment (and its arena) is retained.
func TestEpochCollectTrimsStraddlingSegments(t *testing.T) {
	bothStores(t, 1<<20, 90, 1, func(t *testing.T, st Store) {
		for i := 0; i < 10; i++ {
			st.Commit(mkSlice(0, vclock.VC{uint64(i + 1)}, 64))
		}
		perSlice := mkSlice(0, vclock.VC{1}, 64).Cost()
		// Frontier covers the first 4 commits only; all 10 share one segment
		// in the epoch store, so this is the straddling case.
		if n := st.Collect(vclock.VC{4}); n != 4 {
			t.Fatalf("Collect = %d, want 4", n)
		}
		if st.Live() != 6 {
			t.Fatalf("Live = %d, want 6", st.Live())
		}
		if want := 6 * perSlice; st.Used() != want {
			t.Fatalf("Used = %d, want %d", st.Used(), want)
		}
		// The rest goes once covered.
		if n := st.Collect(vclock.VC{10}); n != 6 {
			t.Fatalf("second Collect = %d, want 6", n)
		}
		if st.Used() != 0 || st.Live() != 0 {
			t.Fatalf("Used = %d, Live = %d at end", st.Used(), st.Live())
		}
	})
}

// TestCollectPassAccounting locks in the empty-pass bugfix for both stores:
// passes that reclaim nothing count as GCEmptyPasses, never as GCCount.
func TestCollectPassAccounting(t *testing.T) {
	bothStores(t, 1<<20, 90, 1, func(t *testing.T, st Store) {
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

// TestCommitDuringCollectAccounting is the regression storm for the
// credit-after-unlock and insert-before-charge bugs: committers race a
// collector whose frontier always covers every committed slice. Any window
// in which a slice is published-but-uncharged (or credited-but-published)
// shows up as a nonzero final balance.
func TestCommitDuringCollectAccounting(t *testing.T) {
	bothStores(t, 1<<30, 90, 4, func(t *testing.T, st Store) {
		const committers = 4
		const perCommitter = 300
		var collectorWG, committerWG sync.WaitGroup
		stop := make(chan struct{})
		collectorWG.Add(1)
		go func() {
			defer collectorWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					st.Collect(vclock.VC{^uint64(0)})
				}
			}
		}()
		for c := 0; c < committers; c++ {
			committerWG.Add(1)
			go func(tid int32) {
				defer committerWG.Done()
				for i := 0; i < perCommitter; i++ {
					st.Commit(mkSlice(tid, vclock.VC{uint64(i + 1)}, 128))
				}
			}(int32(c))
		}
		committerWG.Wait()
		close(stop)
		collectorWG.Wait()
		// One final covering pass reclaims whatever the racing collector
		// missed; the balance must land on exactly zero.
		st.Collect(vclock.VC{^uint64(0)})
		if st.Used() != 0 {
			t.Fatalf("Used = %d after final covering Collect, want 0", st.Used())
		}
		if st.Live() != 0 {
			t.Fatalf("Live = %d, want 0", st.Live())
		}
		if got := st.TotalCreated(); got != committers*perCommitter {
			t.Fatalf("TotalCreated = %d, want %d", got, committers*perCommitter)
		}
		if es, ok := st.(*EpochStore); ok {
			sum := int64(0)
			for i := 0; i < es.Stripes(); i++ {
				sum += es.StripeUsed(i)
			}
			if sum != 0 {
				t.Fatalf("stripe attribution sums to %d, want 0", sum)
			}
		}
	})
}

// TestEpochStripesSumToBudget: per-stripe attribution always sums to the
// exact budget atomic.
func TestEpochStripesSumToBudget(t *testing.T) {
	st := NewEpochStore(1<<30, 90, 4)
	for i := 0; i < 100; i++ {
		st.Commit(mkSlice(int32(i%7), vclock.VC{uint64(i + 1)}, 64+i))
		if i%3 == 0 {
			st.AllocSnapshot(i % 4)
		}
		if i%10 == 9 {
			st.Collect(vclock.VC{uint64(i - 5)})
		}
	}
	sum := int64(0)
	for i := 0; i < st.Stripes(); i++ {
		sum += st.StripeUsed(i)
	}
	if uint64(sum) != st.Used() {
		t.Fatalf("stripes sum to %d, Used = %d", sum, st.Used())
	}
}

// TestEpochPinProtectsPayloads exercises the pin protocol end to end: a pin
// taken before a covering Collect keeps dropped segments' payload bytes
// valid; releasing the pin recycles them (observable via poison-on-free).
func TestEpochPinProtectsPayloads(t *testing.T) {
	st := NewEpochStore(1<<20, 90, 1)
	st.SetPoison(true)
	var held [][]byte
	for i := 0; i < 20; i++ {
		s := mkSlice(0, vclock.VC{uint64(i + 1)}, 32)
		for j := range s.Mods[0].Data {
			s.Mods[0].Data[j] = byte(i)
		}
		st.Commit(s)
		held = append(held, s.Mods[0].Data) // arena-backed after Commit
	}
	pin := st.Pin()
	if n := st.Collect(vclock.VC{100}); n != 20 {
		t.Fatalf("Collect = %d, want 20", n)
	}
	// The segments are dropped but the pin predates the pass: every payload
	// must still read back intact.
	for i, d := range held {
		for j, b := range d {
			if b != byte(i) {
				t.Fatalf("pinned payload %d byte %d = %#x, want %#x", i, j, b, i)
			}
		}
	}
	pin.Release()
	// With the pin gone the arenas recycle and poison-on-free lands.
	poisoned := false
	for _, d := range held {
		if d[0] == alloc.PoisonByte {
			poisoned = true
		}
	}
	if !poisoned {
		t.Fatal("no payload was poisoned after pin release; arenas not recycled")
	}
	// Released pins are idempotent, and the zero Pin is a no-op.
	pin.Release()
	(Pin{}).Release()
}

// TestEpochPinDoesNotBlockLaterDrops checks pin granularity: a pin only
// quarantines segments dropped after it was taken, and a later pin does not
// resurrect protection for earlier drops.
func TestEpochPinDoesNotBlockLaterDrops(t *testing.T) {
	st := NewEpochStore(1<<20, 90, 1)
	st.SetPoison(true)
	s := mkSlice(0, vclock.VC{1}, 32)
	st.Commit(s)
	first := s.Mods[0].Data
	st.Collect(vclock.VC{10}) // drop with no pin live: recycles immediately
	if first[0] != alloc.PoisonByte {
		t.Fatal("unpinned drop did not recycle the arena")
	}
	pin := st.Pin()
	s2 := mkSlice(0, vclock.VC{11}, 32)
	st.Commit(s2)
	second := s2.Mods[0].Data
	st.Collect(vclock.VC{20})
	if second[0] == alloc.PoisonByte {
		t.Fatal("pinned drop recycled the arena early")
	}
	pin.Release()
	if second[0] != alloc.PoisonByte {
		t.Fatal("arena not recycled after the protecting pin released")
	}
}

// TestEpochArenaReuseNeverAliasesLiveRuns is the stress wall: committers,
// a collector and pinned readers race under -race, and every payload a
// reader dereferences under its pin must checksum to its committed value —
// recycled chunks may never alias live or pinned runs.
func TestEpochArenaReuseNeverAliasesLiveRuns(t *testing.T) {
	st := NewEpochStore(1<<30, 90, 4)
	st.SetPoison(true)
	const committers = 3
	const rounds = 200
	var loopWG, committerWG sync.WaitGroup
	stop := make(chan struct{})
	// Collector: covers everything older than it has seen, constantly.
	loopWG.Add(1)
	go func() {
		defer loopWG.Done()
		tick := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
				tick += 3
				st.Collect(vclock.VC{tick, tick, tick})
			}
		}
	}()
	// Pinned readers: pin, iterate sealed slices, verify the fill pattern.
	// Each slice's payload is filled with its own-component timestamp, so a
	// recycled chunk aliasing a live run reads as the wrong byte.
	for r := 0; r < 2; r++ {
		loopWG.Add(1)
		go func() {
			defer loopWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					pin := st.Pin()
					st.ForEachSealed(func(s *Slice) {
						want := byte(s.Time[int(s.Tid)])
						for _, b := range s.Mods[0].Data {
							if b != want {
								panic(fmt.Sprintf("tid %d time %v: payload byte %#x, want %#x (arena aliasing)",
									s.Tid, s.Time, b, want))
							}
						}
					})
					pin.Release()
				}
			}
		}()
	}
	for c := 0; c < committers; c++ {
		committerWG.Add(1)
		go func(tid int32) {
			defer committerWG.Done()
			for i := 0; i < rounds; i++ {
				time := make(vclock.VC, committers)
				time[tid] = uint64(i + 1)
				s := mkSlice(tid, time, 64)
				for j := range s.Mods[0].Data {
					s.Mods[0].Data[j] = byte(i + 1)
				}
				st.Commit(s)
			}
		}(int32(c))
	}
	committerWG.Wait()
	close(stop)
	loopWG.Wait()
	st.Collect(vclock.VC{^uint64(0), ^uint64(0), ^uint64(0)})
	if st.Used() != 0 || st.Live() != 0 {
		t.Fatalf("Used = %d, Live = %d after final Collect", st.Used(), st.Live())
	}
}

// TestEpochSegmentSealBounds checks that long single-thread logs roll over
// into multiple segments instead of growing one unboundedly.
func TestEpochSegmentSealBounds(t *testing.T) {
	st := NewEpochStore(1<<30, 90, 1)
	for i := 0; i < 2*segMaxSlices; i++ {
		st.Commit(mkSlice(0, vclock.VC{uint64(i + 1)}, 16))
	}
	if got := st.Metrics().SegmentsLive; got < 2 {
		t.Fatalf("SegmentsLive = %d after %d commits, want >= 2", got, 2*segMaxSlices)
	}
}
