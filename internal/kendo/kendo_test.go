package kendo

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// deadline bounds every wait in these tests: a lost wakeup fails the test
// instead of hanging it.
const deadline = 2 * time.Second

// await fails the test unless done closes within deadline. On failure it
// aborts s first, so that no goroutine the test started stays blocked.
func await(t *testing.T, s *Sched, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(deadline):
		s.Abort()
		t.Fatalf("%s: not done after %v", what, deadline)
	}
}

// eventually polls cond until it holds, failing the test after deadline.
func eventually(t *testing.T, s *Sched, cond func() bool, what string) {
	t.Helper()
	for end := time.Now().Add(deadline); !cond(); {
		if time.Now().After(end) {
			s.Abort()
			t.Fatalf("%s: not after %v", what, deadline)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

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
	if s.probe(a) {
		t.Fatal("a (clock 10) must not hold the turn over b/c (clock 5)")
	}
	if !s.probe(b) {
		t.Fatal("b (clock 5, id 1) must hold the turn")
	}
	if s.probe(c) {
		t.Fatal("c (clock 5, id 2) loses the tid tie-break to b")
	}
	b.Tick(1)
	if !s.probe(c) {
		t.Fatal("after b ticks to 6, c must hold the turn")
	}
}

// TestProbeAtExplicitKey: a key is probed against every Running thread but
// its own, so a thread that has ticked past a key still lets that key hold the
// turn, and the tid breaks a clock tie as it does for a waiter.
func TestProbeAtExplicitKey(t *testing.T) {
	s := NewSched()
	s.Register(0, 50) // deferred something at clock 7 and went on
	b := s.Register(1, 8)
	c := s.Register(2, 7)
	if !s.ProbeAt(7, 0) {
		t.Fatal("(7, 0) precedes b at 8 and c at (7, 2); thread 0's own clock must not count")
	}
	if s.ProbeAt(7, 3) {
		t.Fatal("(7, 3) loses the tid tie-break to c at (7, 2)")
	}
	if s.ProbeAt(9, 0) {
		t.Fatal("(9, 0) must wait for b at 8")
	}
	b.SetStatus(Blocked)
	c.Tick(10)
	if !s.ProbeAt(9, 0) {
		t.Fatal("with b blocked and c at 17, (9, 0) holds the turn")
	}
	if s.ProbeAt(51, 1) {
		t.Fatal("(51, 1) must wait for thread 0 at 50")
	}
}

func TestBlockedThreadsIneligible(t *testing.T) {
	s := NewSched()
	a := s.Register(0, 10)
	b := s.Register(1, 1)
	if s.probe(a) {
		t.Fatal("a should wait for b")
	}
	b.SetStatus(Blocked)
	if !s.probe(a) {
		t.Fatal("blocked b must not block a")
	}
	b.SetStatus(Exited)
	if !s.probe(a) {
		t.Fatal("exited b must not block a")
	}
}

func TestAbortUnblocksWaiters(t *testing.T) {
	s := NewSched()
	a := s.Register(0, 100)
	s.Register(1, 1) // never ticks: a would wait forever
	done := make(chan struct{})
	var ok bool
	go func() {
		ok, _ = s.WaitForTurn(a)
		close(done)
	}()
	s.Abort()
	await(t, s, done, "WaitForTurn after Abort")
	if ok {
		t.Fatal("WaitForTurn must return false after Abort")
	}
	if !s.Aborted() {
		t.Fatal("Aborted() should be true")
	}
}

// TestParkedWaiterWokenByPredecessor: a waiter queued behind another waiter
// parks, and is woken when that waiter is admitted.
func TestParkedWaiterWokenByPredecessor(t *testing.T) {
	s := NewSched()
	a := s.Register(0, 10)
	b := s.Register(1, 20)
	c := s.Register(2, 0) // computing: both a and b wait for it
	order := make(chan int32, 2)
	done := make(chan struct{})
	go func() {
		if ok, _ := s.WaitForTurn(a); ok {
			order <- a.ID()
			a.Tick(100) // cede the turn to b
		}
	}()
	eventually(t, s, a.waiting.Load, "a announced as a waiter")
	go func() {
		if ok, _ := s.WaitForTurn(b); ok {
			order <- b.ID()
		}
		close(done)
	}()
	eventually(t, s, b.parked.Load, "b parked behind a")
	if a.parked.Load() {
		t.Fatal("a, the head waiter, parked")
	}
	c.Tick(100)
	await(t, s, done, "b admitted after a")
	close(order)
	var got []int32
	for id := range order {
		got = append(got, id)
	}
	if len(got) != 2 || got[0] != a.ID() || got[1] != b.ID() {
		t.Fatalf("admission order %v, want [0 1]", got)
	}
}

// TestAbortUnparksWaiters: a parked waiter returns false after Abort.
func TestAbortUnparksWaiters(t *testing.T) {
	s := NewSched()
	a := s.Register(0, 10)
	b := s.Register(1, 20)
	s.Register(2, 0) // never ticks
	go s.WaitForTurn(a)
	eventually(t, s, a.waiting.Load, "a announced as a waiter")
	done := make(chan struct{})
	var ok bool
	go func() {
		ok, _ = s.WaitForTurn(b)
		close(done)
	}()
	eventually(t, s, b.parked.Load, "b parked behind a")
	s.Abort()
	await(t, s, done, "parked b unwinding after Abort")
	if ok {
		t.Fatal("parked waiter admitted after Abort")
	}
}

// TestTurnStress runs 8 procs through 2,000 turns each, with per-proc tick
// sizes fixed by (proc, turn), at several GOMAXPROCS: the turn must be
// mutually exclusive, and the admission order must be the one a sequential
// model of the (clock, tid) rule gives.
func TestTurnStress(t *testing.T) {
	const procs, turns = 8, 2000
	tick := func(id, k int) uint64 { return uint64(1 + (id*7+k*13)%17) }

	// The model: the Running proc with the smallest (clock, tid) goes next; a
	// proc exits on its last turn instead of ticking.
	var want []int32
	clocks := make([]uint64, procs)
	left := make([]int, procs)
	for i := range clocks {
		clocks[i], left[i] = uint64(i%3), turns
	}
	for len(want) < procs*turns {
		m := -1
		for i := range clocks {
			if left[i] > 0 && (m < 0 || clocks[i] < clocks[m]) {
				m = i
			}
		}
		want = append(want, int32(m))
		left[m]--
		clocks[m] += tick(m, turns-left[m]-1)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, maxprocs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(maxprocs)
		s := NewSched()
		ps := make([]*Proc, procs)
		for i := range ps {
			ps[i] = s.Register(int32(i), uint64(i%3))
		}
		got := make([]int32, 0, procs*turns)
		var inside atomic.Bool
		var wg sync.WaitGroup
		for _, p := range ps {
			wg.Add(1)
			go func(p *Proc) {
				defer wg.Done()
				for k := 0; k < turns; k++ {
					if ok, _ := s.WaitForTurn(p); !ok {
						return
					}
					if inside.Swap(true) {
						t.Errorf("GOMAXPROCS %d: two procs hold the turn", maxprocs)
					}
					got = append(got, p.ID())
					inside.Store(false)
					if k == turns-1 {
						s.Transition(func() { p.SetStatus(Exited) })
					} else {
						p.Tick(tick(int(p.ID()), k))
					}
				}
			}(p)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		await(t, s, done, "stress run")
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS %d: %d admissions, want %d", maxprocs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GOMAXPROCS %d: admission %d is proc %d, model says %d", maxprocs, i, got[i], want[i])
			}
		}
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
				s.Transition(func() { p.SetStatus(Exited) })
			}(procs[i])
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		await(t, s, done, "serialized turns")
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
	if s.probe(fast) {
		t.Fatal("fast thread admitted before slow")
	}
	if !s.probe(slow) {
		t.Fatal("slow thread not admitted")
	}
	if fast.Clock() != 100 || slow.Clock() != 0 {
		t.Fatal("clock bookkeeping wrong")
	}
	slow.clock.Store(200)
	if !s.probe(fast) {
		t.Fatal("after the clock store, fast should be admitted")
	}
}
