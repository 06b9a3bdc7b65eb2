package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rfdet/internal/api"
	"rfdet/internal/trace"
)

// Deadline tests for Unlock's deferred release (sync.go). Each scenario is
// forced by host-side flags that the threads spin on outside the runtime, so
// it happens on every run; a path that strands a thread fails runWithin's
// deadline, and one that leaks a goroutine fails its baseline check.

// spinUntil waits on the host for f, without ticking: the calling thread's
// Kendo clock stays where it is.
func spinUntil(f *atomic.Bool) {
	for !f.Load() {
		runtime.Gosched()
	}
}

// blockSpans counts thread id's block spans.
func blockSpans(rep *api.Report, id int) int {
	n := 0
	for _, tl := range rep.Phases.Threads {
		if tl.ID != id {
			continue
		}
		for _, s := range tl.Spans {
			if s.Phase == trace.PhaseBlock {
				n++
			}
		}
	}
	return n
}

// TestDeferredReleaseRunByAnotherTurn: thread 0's Unlock leaves the turn, and
// thread 1's Lock, at a key above the release's, runs the release on entry
// and finds the mutex free, with thread 0's store visible. Thread 0 takes no
// turn until thread 1 has locked, so nobody else can have run it.
func TestDeferredReleaseRunByAnotherTurn(t *testing.T) {
	opts := DefaultOptions()
	opts.PhaseTrace = true
	var released, locked atomic.Bool
	rep, err := runWithin(t, opts, func(th api.Thread) {
		m, x := th.Malloc(8), th.Malloc(8)
		th.Lock(m)
		id := th.Spawn(func(c api.Thread) {
			spinUntil(&released)
			c.Tick(1000) // above the release's key, below thread 0's clock
			c.Lock(m)
			c.Observe(c.Load64(x))
			c.Unlock(m)
			locked.Store(true)
		})
		th.Store64(x, 7)
		th.Unlock(m)
		th.Tick(1_000_000)
		released.Store(true)
		spinUntil(&locked)
		th.Join(id)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Observations[1]; len(got) != 1 || got[0] != 7 {
		t.Fatalf("thread 1 observed %v, want [7]", got)
	}
	if n := blockSpans(rep, 1); n != 0 {
		t.Fatalf("thread 1 blocked %d times: its turn did not run the release below its key", n)
	}
}

// TestLockTakesOverDeferredRelease: thread 1 locks at a key below thread 0's
// deferred release, finds the mutex held and queues; thread 0 then computes
// without taking a turn until thread 1 holds the mutex. Only thread 1's
// take-over of the release (sleep) can grant it.
func TestLockTakesOverDeferredRelease(t *testing.T) {
	opts := DefaultOptions()
	opts.PhaseTrace = true
	var released, locked atomic.Bool
	rep, err := runWithin(t, opts, func(th api.Thread) {
		m, x := th.Malloc(8), th.Malloc(8)
		th.Lock(m)
		id := th.Spawn(func(c api.Thread) {
			spinUntil(&released)
			c.Lock(m)
			c.Observe(c.Load64(x))
			c.Unlock(m)
			locked.Store(true)
		})
		th.Store64(x, 7)
		th.Tick(100)
		th.Unlock(m)
		released.Store(true)
		spinUntil(&locked)
		th.Join(id)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Observations[1]; len(got) != 1 || got[0] != 7 {
		t.Fatalf("thread 1 observed %v, want [7]", got)
	}
	if n := blockSpans(rep, 1); n != 1 {
		t.Fatalf("thread 1 blocked %d times, want once, on the held mutex", n)
	}
}

// TestBackToBackUnlocksTakeTheTurn: the second of two Unlocks finds the first
// one's release still pending — thread 0 is blocked in Join, so nobody else
// takes a turn — and takes the turn, whose entry runs the first release
// before the second's slice is stamped.
func TestBackToBackUnlocksTakeTheTurn(t *testing.T) {
	rep, err := runWithin(t, DefaultOptions(), func(th api.Thread) {
		a, b, x := th.Malloc(8), th.Malloc(8), th.Malloc(8)
		id := th.Spawn(func(c api.Thread) {
			c.Lock(a)
			c.Lock(b)
			c.Store64(x, 1)
			c.Unlock(a)
			c.Store64(x, 2)
			c.Unlock(b)
		})
		th.Join(id)
		th.Lock(a)
		th.Lock(b)
		th.Observe(th.Load64(x))
		th.Unlock(b)
		th.Unlock(a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Observations[0]; len(got) != 1 || got[0] != 2 {
		t.Fatalf("thread 0 observed %v, want [2]", got)
	}
	s := rep.Stats
	if ops := s.Locks + s.Unlocks + s.Forks + s.Joins; s.MonitorAcquires != ops+uint64(rep.Threads) {
		t.Fatalf("MonitorAcquires = %d, want %d operations + %d exits", s.MonitorAcquires, ops, rep.Threads)
	}
}

// TestAbortWithDeferredReleasePending: thread 0's release stays pending — thread
// 2 holds its key back, computing below it — while thread 1 queues on the
// mutex and polls to take the release over; then thread 0 fails the run. The
// poller must see the abort, and every thread must unwind.
func TestAbortWithDeferredReleasePending(t *testing.T) {
	var released, queued atomic.Bool
	checkMisuse(t, func(th api.Thread) {
		m := th.Malloc(8)
		th.Lock(m)
		th.Spawn(func(c api.Thread) {
			c.Tick(20) // past thread 0's next spawn
			spinUntil(&released)
			queued.Store(true)
			c.Lock(m)
		})
		th.Spawn(func(c api.Thread) {
			c.Tick(40) // past thread 1's Lock, below the release's key
			for e := c.(*thread).exec; !e.sched.Aborted(); {
				runtime.Gosched()
			}
			c.Lock(m)
		})
		th.Tick(100)
		th.Unlock(m)
		released.Store(true)
		spinUntil(&queued)
		time.Sleep(5 * time.Millisecond) // thread 1 reaches its poll
		th.Barrier(64, 0)
	}, "rfdet: thread 0: barrier with count 0")
}

// TestUnlockOfUnheldMutexTakesTheTurn: an Unlock of a mutex another thread
// holds is not deferred, even with the thread's own release pending: it takes
// the turn, runs that release, and fails with the usual message.
func TestUnlockOfUnheldMutexTakesTheTurn(t *testing.T) {
	checkMisuse(t, func(th api.Thread) {
		th.Lock(128)
		id := th.Spawn(func(c api.Thread) {
			c.Lock(64)
			c.Unlock(64)
			c.Unlock(128)
		})
		th.Join(id)
	}, "rfdet: thread 1: unlock of mutex 0x80 not held by it")
}
