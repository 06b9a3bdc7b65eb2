package alloc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rfdet/internal/mem"
)

func TestBasicAllocation(t *testing.T) {
	a := New()
	a.Register(0)
	p1 := a.Malloc(0, 100)
	p2 := a.Malloc(0, 100)
	if p1 == p2 {
		t.Fatal("distinct allocations must have distinct addresses")
	}
	if p1 < HeapBase {
		t.Fatalf("allocation below HeapBase: %#x", p1)
	}
	if p1%16 != 0 || p2%16 != 0 {
		t.Fatal("allocations must be 16-byte aligned")
	}
	if got := a.SizeOf(p1); got != 128 {
		t.Fatalf("SizeOf = %d, want 128 (rounded class)", got)
	}
}

func TestZeroSizeAllocationsDistinct(t *testing.T) {
	a := New()
	a.Register(0)
	if a.Malloc(0, 0) == a.Malloc(0, 0) {
		t.Fatal("zero-size allocations must still be distinct")
	}
}

// TestNoOverlapProperty is the §4.4 guarantee: allocations from any mix of
// threads never overlap.
func TestNoOverlapProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := New()
		nt := 1 + r.Intn(4)
		for tid := 0; tid < nt; tid++ {
			a.Register(tid)
		}
		type span struct{ lo, hi uint64 }
		var live []span
		for i := 0; i < 200; i++ {
			tid := r.Intn(nt)
			size := uint64(1 + r.Intn(10000))
			p := a.Malloc(tid, size)
			for _, s := range live {
				if p < s.hi && p+size > s.lo {
					return false
				}
			}
			live = append(live, span{p, p + size})
			// Occasionally free a random live span.
			if r.Intn(3) == 0 && len(live) > 0 {
				k := r.Intn(len(live))
				if err := a.Free(live[k].lo); err != nil {
					return false
				}
				live = append(live[:k], live[k+1:]...)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestDeterministicSequences: the same per-thread allocation sequence yields
// the same addresses, regardless of the other threads' activity.
func TestDeterministicSequences(t *testing.T) {
	runSeq := func(noise bool) []uint64 {
		a := New()
		a.Register(0)
		a.Register(1)
		var got []uint64
		for i := 0; i < 50; i++ {
			got = append(got, a.Malloc(0, uint64(16+i*7)))
			if noise {
				// Interleaved activity in another thread's heap.
				p := a.Malloc(1, uint64(1+i*13))
				if i%2 == 0 {
					if err := a.Free(p); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return got
	}
	quiet := runSeq(false)
	noisy := runSeq(true)
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("allocation %d differs with concurrent activity: %#x vs %#x", i, quiet[i], noisy[i])
		}
	}
}

func TestFreeAndReuse(t *testing.T) {
	a := New()
	a.Register(0)
	p := a.Malloc(0, 64)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	// LIFO reuse within the same size class.
	if q := a.Malloc(0, 64); q != p {
		t.Fatalf("expected reuse of %#x, got %#x", p, q)
	}
	// Large allocations reuse page-granular spans.
	big := a.Malloc(0, 3*mem.PageSize)
	if err := a.Free(big); err != nil {
		t.Fatal(err)
	}
	if q := a.Malloc(0, 3*mem.PageSize); q != big {
		t.Fatalf("expected large-span reuse of %#x, got %#x", big, q)
	}
}

func TestCrossThreadFree(t *testing.T) {
	a := New()
	a.Register(0)
	a.Register(1)
	p := a.Malloc(0, 64)
	// Thread 1 frees thread 0's block; it returns to heap 0.
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if q := a.Malloc(0, 64); q != p {
		t.Fatalf("cross-thread free did not return block to owner heap")
	}
}

func TestFreeErrors(t *testing.T) {
	a := New()
	a.Register(0)
	if err := a.Free(12345); err == nil {
		t.Fatal("free of non-heap address must fail")
	}
	p := a.Malloc(0, 64)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err == nil {
		t.Fatal("double free must fail")
	}
}

func TestAccounting(t *testing.T) {
	a := New()
	a.Register(0)
	p := a.Malloc(0, 1000) // rounds to 1024
	if a.LiveBytes() != 1024 {
		t.Fatalf("LiveBytes = %d", a.LiveBytes())
	}
	q := a.Malloc(0, 5000) // rounds to 8192 (two pages)
	if a.LiveBytes() != 1024+8192 {
		t.Fatalf("LiveBytes = %d", a.LiveBytes())
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if a.LiveBytes() != 8192 {
		t.Fatalf("LiveBytes after free = %d", a.LiveBytes())
	}
	if a.HighWater() != 1024+8192 {
		t.Fatalf("HighWater = %d", a.HighWater())
	}
	_ = q
}

func TestRegionSeparation(t *testing.T) {
	a := New()
	a.Register(0)
	a.Register(3)
	p0 := a.Malloc(0, 16)
	p3 := a.Malloc(3, 16)
	if (p0-HeapBase)/RegionSize != 0 {
		t.Fatalf("thread 0 allocation outside its region: %#x", p0)
	}
	if (p3-HeapBase)/RegionSize != 3 {
		t.Fatalf("thread 3 allocation outside its region: %#x", p3)
	}
}

// TestConcurrentRegisterAndFree pins the heap-table locking fixed alongside
// the detvet lockcheck sweep: Free and SizeOf used to index a.heaps without
// a.mu, racing against the slice reallocation a concurrent Register performs
// when it grows the table. Run under -race this test fails on the unlocked
// lookup.
//
// It is also the wall for the allocator's lock order, which no analyzer
// checks: Register and Free never hold a.mu and a heap's mu together. A
// change that nests them in opposite orders deadlocks here within a few
// dozen rounds at GOMAXPROCS > 1, hence the repetition.
func TestConcurrentRegisterAndFree(t *testing.T) {
	for round := 0; round < 200; round++ {
		registerWhileFreeing(t)
	}
}

func registerWhileFreeing(t *testing.T) {
	a := New()
	a.Register(0)
	addrs := make([]uint64, 0, 256)
	for i := 0; i < 256; i++ {
		addrs = append(addrs, a.Malloc(0, 64))
	}
	done := make(chan struct{}, 2)
	go func() {
		defer func() { done <- struct{}{} }()
		for tid := 1; tid < 300; tid++ {
			a.Register(tid)
		}
	}()
	go func() {
		defer func() { done <- struct{}{} }()
		for _, ad := range addrs {
			if a.SizeOf(ad) == 0 {
				t.Error("live allocation reported size 0")
				return
			}
			if err := a.Free(ad); err != nil {
				t.Errorf("Free(%#x): %v", ad, err)
				return
			}
		}
	}()
	<-done
	<-done
	if got := a.LiveBytes(); got != 0 {
		t.Fatalf("LiveBytes = %d after freeing everything, want 0", got)
	}
}
