package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rfdet/internal/api"
	"rfdet/internal/trace"
	"rfdet/internal/vclock"
	"rfdet/internal/workloads"
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

// spans counts thread id's spans of phase p.
func spans(rep *api.Report, id int, p trace.Phase) int {
	n := 0
	for _, tl := range rep.Phases.Threads {
		if tl.ID != id {
			continue
		}
		for _, s := range tl.Spans {
			if s.Phase == p {
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
	if n := spans(rep, 1, trace.PhaseBlock); n != 0 {
		t.Fatalf("thread 1 blocked %d times: its turn did not run the release below its key", n)
	}
	if n := spans(rep, 1, trace.PhaseDrain); n == 0 {
		t.Fatal("thread 1 ran thread 0's release with no drain span")
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
	if n := spans(rep, 1, trace.PhaseBlock); n != 1 {
		t.Fatalf("thread 1 blocked %d times, want once, on the held mutex", n)
	}
	if !drainWhileBlocked(rep, 1) {
		t.Fatal("thread 1 has no drain span inside its block span: the take-over")
	}
}

// drainWhileBlocked reports whether thread id has a drain span inside one of
// its block spans.
func drainWhileBlocked(rep *api.Report, id int) bool {
	for _, tl := range rep.Phases.Threads {
		if tl.ID != id {
			continue
		}
		for _, b := range tl.Spans {
			for _, d := range tl.Spans {
				if b.Phase == trace.PhaseBlock && d.Phase == trace.PhaseDrain &&
					d.Start >= b.Start && d.Start+d.Dur <= b.Start+b.Dur {
					return true
				}
			}
		}
	}
	return false
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
	checkMisuse(t, abortWithReleasePending(), errAbortWithRelease)
}

const errAbortWithRelease = "rfdet: thread 0: barrier with count 0"

// abortWithReleasePending is TestAbortWithDeferredReleasePending's program.
func abortWithReleasePending() api.ThreadFunc {
	var released, queued atomic.Bool
	return func(th api.Thread) {
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
	}
}

// TestAbortWithDeferredReleaseThenRunAgain: the Runtime keeps an execution's
// thread scratch for the next one, the aborted one's too, whose thread 0 left
// its deferred release published. The next execution on the same Runtime must
// not run it: the KV server there gives its pinned output and virtual time
// within the deadline, and a third execution's aborts as before.
func TestAbortWithDeferredReleaseThenRunAgain(t *testing.T) {
	rt := New(DefaultOptions())
	server := workloads.Server(workloads.Config{Threads: 4, Size: workloads.SizeTest})
	for i := 0; i < 2; i++ {
		if _, err := runOn(t, rt, abortWithReleasePending()); err == nil || err.Error() != errAbortWithRelease {
			t.Fatalf("run %d: error %v, want %q", 2*i, err, errAbortWithRelease)
		}
		rep, err := runOn(t, rt, server)
		if err != nil {
			t.Fatalf("run %d: %v", 2*i+1, err)
		}
		if rep.OutputHash != 0x4e54dc625c3bc116 || rep.VirtualTime != 469638 {
			t.Fatalf("run %d: output=%#x vtime=%d after an abort, seed output=0x4e54dc625c3bc116 vtime=469638",
				2*i+1, rep.OutputHash, rep.VirtualTime)
		}
	}
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

// TestDeferredReleaseDrainedOnceTheTurnComes: thread 0 has won the turn at key
// 136 and enters; thread 2's release at key 111 is pending, and thread 1, just
// woken by a release run since thread 0 began to wait, is Running at clock 100,
// so the drain's probe of key 111 fails and the drain stops. Before thread 0
// probes its own key, thread 1 ticks past it (drainStopped forces the window).
// Thread 0 then holds the turn, and must run the release at 111 before its
// section: entering with it pending lets the section find the mutex held.
func TestDeferredReleaseDrainedOnceTheTurnComes(t *testing.T) {
	e := newTestExec()
	var th [3]*thread
	for i, clock := range []uint64{136, 100, 200} {
		th[i] = fakeThread(e, i, vclock.New(3))
		th[i].proc.Tick(clock)
		e.threads = append(e.threads, th[i])
	}
	e.mu.Lock()
	sv := e.syncvar(64)
	sv.held, sv.owner = true, 2
	e.mu.Unlock()
	rel := &th[2].scratch.rel
	rel.sv = sv
	e.deferred.Store(2)
	e.ran.Store(1)
	rel.key.Store(111)
	e.drainStopped = func() { th[1].proc.Tick(100) }
	done := make(chan struct{})
	go func() {
		e.lockTurn(th[0])
		e.leave(th[0])
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("no entry after 10s: the drain did not finish")
	}
	if rel.key.Load() != 0 || e.ran.Load() != 2 || sv.held {
		t.Fatalf("thread 0 entered at key 136 with the release at key 111 pending (key %d, ran %d, mutex held %v)",
			rel.key.Load(), e.ran.Load(), sv.held)
	}
}
