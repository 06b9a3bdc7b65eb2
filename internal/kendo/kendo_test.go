package kendo

import (
	"sync"
	"testing"
)

func TestSingleThreadAlwaysHasTurn(t *testing.T) {
	s := NewSched()
	p := s.Register(0, 0)
	ok, waited := s.WaitForTurn(p)
	if !ok || waited {
		t.Fatalf("lone thread: ok=%v waited=%v", ok, waited)
	}
}

func TestTurnOrderByClockThenID(t *testing.T) {
	s := NewSched()
	a := s.Register(0, 10)
	b := s.Register(1, 5)
	c := s.Register(2, 5)
	if s.isMin(a) {
		t.Fatal("a (clock 10) must not hold the turn over b/c (clock 5)")
	}
	if !s.isMin(b) {
		t.Fatal("b (clock 5, id 1) must hold the turn")
	}
	if s.isMin(c) {
		t.Fatal("c (clock 5, id 2) loses the tid tie-break to b")
	}
	b.Tick(1)
	if !s.isMin(c) {
		t.Fatal("after b ticks to 6, c must hold the turn")
	}
}

func TestBlockedThreadsIneligible(t *testing.T) {
	s := NewSched()
	a := s.Register(0, 10)
	b := s.Register(1, 1)
	if s.isMin(a) {
		t.Fatal("a should wait for b")
	}
	b.SetStatus(Blocked)
	if !s.isMin(a) {
		t.Fatal("blocked b must not block a")
	}
	b.SetStatus(Exited)
	if !s.isMin(a) {
		t.Fatal("exited b must not block a")
	}
}

func TestAbortUnblocksWaiters(t *testing.T) {
	s := NewSched()
	a := s.Register(0, 100)
	s.Register(1, 1) // never ticks: a would wait forever
	done := make(chan bool)
	go func() {
		ok, _ := s.WaitForTurn(a)
		done <- ok
	}()
	s.Abort()
	if ok := <-done; ok {
		t.Fatal("WaitForTurn must return false after Abort")
	}
	if !s.Aborted() {
		t.Fatal("Aborted() should be true")
	}
}

// TestSerializedTurns verifies mutual exclusion of the deterministic turn:
// concurrent threads performing turn-gated critical sections never overlap
// and always produce the same admission order.
func TestSerializedTurns(t *testing.T) {
	const nthreads = 4
	const opsEach = 50
	runOnce := func() []int32 {
		s := NewSched()
		procs := make([]*Proc, nthreads)
		for i := range procs {
			procs[i] = s.Register(int32(i), uint64(i))
		}
		var mu sync.Mutex
		var order []int32
		inside := false
		var wg sync.WaitGroup
		for i := range procs {
			wg.Add(1)
			go func(p *Proc) {
				defer wg.Done()
				for op := 0; op < opsEach; op++ {
					if ok, _ := s.WaitForTurn(p); !ok {
						return
					}
					mu.Lock()
					if inside {
						t.Error("two threads inside the turn at once")
					}
					inside = true
					order = append(order, p.ID())
					inside = false
					// Advance past the op, deterministically.
					p.Tick(uint64(3 + p.ID()))
					mu.Unlock()
				}
				p.SetStatus(Exited)
			}(procs[i])
		}
		wg.Wait()
		return order
	}
	first := runOnce()
	if len(first) != nthreads*opsEach {
		t.Fatalf("admissions = %d, want %d", len(first), nthreads*opsEach)
	}
	for trial := 0; trial < 3; trial++ {
		again := runOnce()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("admission order diverged at %d: %d vs %d", i, first[i], again[i])
			}
		}
	}
}

// TestTurnRespectsClockMonotonicity: a thread that performed less logical
// work is always admitted before one that performed more.
func TestTurnRespectsClockMonotonicity(t *testing.T) {
	s := NewSched()
	fast := s.Register(0, 0)
	slow := s.Register(1, 0)
	fast.Tick(100)
	// slow (clock 0) must be admitted; fast must not.
	if s.isMin(fast) {
		t.Fatal("fast thread admitted before slow")
	}
	if !s.isMin(slow) {
		t.Fatal("slow thread not admitted")
	}
	if fast.Clock() != 100 || slow.Clock() != 0 {
		t.Fatal("clock bookkeeping wrong")
	}
	slow.clock.Store(200)
	if !s.isMin(fast) {
		t.Fatal("after the clock store, fast should be admitted")
	}
}
