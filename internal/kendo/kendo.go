// Package kendo implements the deterministic logical-clock arbitration of
// Olszewski et al.'s Kendo algorithm, which RFDet uses to impose a
// deterministic total order on synchronization operations (paper §4.1).
//
// Each thread carries a logical clock that counts its instrumented memory
// operations (the paper's compile-time instrTick instrumentation). A thread
// may perform a synchronization operation only when its (clock, tid) pair is
// minimal among all runnable threads; because a waiter's clock is frozen
// while every other runnable thread's clock only grows, at most one thread
// holds the turn at a time, and the resulting order of synchronization
// operations is a pure function of the program's deterministic clock values.
//
// Threads blocked on a held lock, in a condition wait, at a barrier or in a
// join are ineligible for the minimum; they re-enter deterministically
// because entering and leaving a wait queue happen only while holding the
// turn. Unlike the quantum schemes of DMP/CoreDet/Calvin, no thread ever
// waits unless it is itself attempting synchronization — this is the paper's
// "no global barriers" property.
//
// How a thread waits for its turn never decides which thread is admitted:
// that is the seqlocked (clock, tid) scan alone. A thread whose first probe
// fails announces itself as a waiter. Only the waiter that no other waiter
// precedes — the head — spins, yields and sleeps on the probe, because what
// it waits for is a computing peer's clock. A waiter behind another waiter
// cannot be next (that waiter's clock is frozen until it is admitted), so it
// parks on its own channel, and the waiter admitted ahead of it wakes it as
// it takes the turn: the wake overlaps the predecessor's operation instead
// of following it.
package kendo

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Status is a thread's scheduling state as seen by the turn arbiter.
type Status int32

const (
	// Running threads compete for the deterministic turn.
	Running Status = iota
	// Blocked threads (held lock, cond wait, barrier, join) are ineligible.
	Blocked
	// Exited threads no longer participate.
	Exited
)

// Proc is one thread's view of the arbiter.
type Proc struct {
	id     int32
	clock  atomic.Uint64
	status atomic.Int32
	// waiting is set from a WaitForTurn's first failed probe to its return;
	// parked while it may block on wake, which holds at most one token.
	waiting atomic.Bool
	parked  atomic.Bool
	wake    chan struct{}
}

// ID returns the deterministic thread ID.
func (p *Proc) ID() int32 { return p.id }

// Tick advances the logical clock by n instrumented instructions.
func (p *Proc) Tick(n uint64) { p.clock.Add(n) }

// Clock returns the current logical clock.
func (p *Proc) Clock() uint64 { return p.clock.Load() }

// Status returns the current scheduling state.
func (p *Proc) Status() Status { return Status(p.status.Load()) }

// SetStatus transitions the scheduling state. Transitions other than
// Running→Running must happen while the caller holds the runtime monitor so
// that queue membership and eligibility change together.
func (p *Proc) SetStatus(s Status) { p.status.Store(int32(s)) }

// before reports whether p precedes q in the deterministic (clock, tid)
// order.
func (p *Proc) before(q *Proc) bool {
	pc, qc := p.clock.Load(), q.clock.Load()
	if pc != qc {
		return pc < qc
	}
	return p.id < q.id
}

// Sched arbitrates the deterministic turn among all threads of one program
// execution.
type Sched struct {
	procs   atomic.Pointer[[]*Proc]
	aborted atomic.Bool
	// gen is a seqlock over scheduling transitions (status changes, thread
	// registration). WaitForTurn's eligibility scan reads several atomic
	// words (every proc's clock and status); without the seqlock a scan can
	// straddle a wake transition — observing the waker's clock tick but not
	// the woken thread's Blocked→Running flip — and falsely conclude it holds
	// the turn while the woken thread does too. Writers make gen odd for the
	// duration of the transition; readers retry any scan during which gen was
	// odd or changed.
	gen atomic.Uint64
}

// NewSched returns an empty arbiter.
func NewSched() *Sched {
	s := &Sched{}
	empty := make([]*Proc, 0)
	s.procs.Store(&empty)
	return s
}

// Register adds a thread with the given ID and starting clock and returns
// its Proc. Registration must be externally serialized (thread creation is a
// synchronization operation, so it happens under the turn).
func (s *Sched) Register(id int32, clock uint64) *Proc {
	p := &Proc{id: id, wake: make(chan struct{}, 1)}
	p.clock.Store(clock)
	p.status.Store(int32(Running))
	old := *s.procs.Load()
	next := make([]*Proc, len(old)+1)
	copy(next, old)
	next[len(old)] = p
	s.Transition(func() { s.procs.Store(&next) })
	return p
}

// Transition brackets a scheduling-state mutation — a status change or a
// thread registration — so that no WaitForTurn scan can observe it half
// applied. The caller must already hold the deterministic turn (or the
// runtime monitor during teardown); Transition only publishes the mutation
// atomically with respect to concurrent eligibility scans.
func (s *Sched) Transition(fn func()) {
	s.gen.Add(1)
	fn()
	s.gen.Add(1)
}

// Abort makes every WaitForTurn return false, unwinding a failed execution:
// it hands every proc a wake token, so that a parked waiter sees the abort.
func (s *Sched) Abort() {
	s.aborted.Store(true)
	for _, p := range *s.procs.Load() {
		p.token()
	}
}

// Aborted reports whether the execution was aborted.
func (s *Sched) Aborted() bool { return s.aborted.Load() }

// WaitForTurn blocks until p holds the deterministic turn: no other Running
// thread has a smaller (clock, tid). It returns false if the execution was
// aborted, and reports in waited whether the first probe failed (the
// TurnWaits statistic). The caller's clock and status must not change while
// it waits.
//
// A first probe that succeeds returns at once and marks nothing. Otherwise p
// is a waiter until it returns. On each failed probe, p parks if another
// waiter precedes it, and otherwise (p is the head waiter) retries after a
// spin, a yield or, on a long wait, a short sleep. A waiter admitted wakes
// the smallest remaining waiter if that one is parked. The invariant is that
// the minimum waiter is never parked without a pending token:
//   - a waiter parks only behind a waiter, whose clock is frozen, so it is
//     never the minimum while its reason to park holds;
//   - waiters leave only through admission, which wakes the new minimum, or
//     through an abort, which wakes every proc;
//   - a fast-path taker never announced itself, so it was nobody's
//     predecessor.
//
// Parking sets parked and then re-reads the waiters; admission clears
// waiting and then reads parked. Go's atomics are sequentially consistent,
// so one side always sees the other's store and no wakeup is lost.
func (s *Sched) WaitForTurn(p *Proc) (ok, waited bool) {
	if s.aborted.Load() {
		return false, false
	}
	if s.probe(p) {
		return true, false
	}
	p.waiting.Store(true)
	spins := 0
	for {
		if s.waiterBefore(p) {
			s.park(p)
			spins = 0
		} else {
			spins++
			Pause(spins)
		}
		if s.aborted.Load() {
			p.waiting.Store(false)
			return false, true
		}
		if s.probe(p) {
			p.waiting.Store(false)
			s.wakeNext(p)
			return true, true
		}
	}
}

// Pause is one retry step of a waiter that polls for a computing thread to
// tick past it, the spins-th in a row: a busy retry at first, then a yield,
// and on a long wait (the other thread is deep in a compute slice) a short
// sleep, so that the waiter does not burn the core that thread needs.
func Pause(spins int) {
	switch {
	case spins < 64:
	case spins < 512:
		runtime.Gosched()
	default:
		time.Sleep(2 * time.Microsecond)
	}
}

// probe is ProbeAt at p's own key: p's clock is frozen while it waits.
func (s *Sched) probe(p *Proc) bool { return s.ProbeAt(p.Clock(), p.id) }

// ProbeAt reports whether the key (clock, id) precedes every Running thread
// other than id: whether an operation at that key would hold the turn. It is
// one seqlock read, valid only if no scheduling transition was in flight (gen
// odd) or completed (gen changed) while it ran. WaitForTurn probes a waiter's
// own key; the runtime also probes a release deferred at a key its thread has
// since ticked past.
func (s *Sched) ProbeAt(clock uint64, id int32) bool {
	g := s.gen.Load()
	if g&1 != 0 {
		return false
	}
	for _, q := range *s.procs.Load() {
		if q.id == id || Status(q.status.Load()) != Running {
			continue
		}
		if qc := q.clock.Load(); qc < clock || qc == clock && q.id < id {
			return false
		}
	}
	return s.gen.Load() == g
}

// waiterBefore reports whether a waiter other than p precedes it.
func (s *Sched) waiterBefore(p *Proc) bool {
	for _, q := range *s.procs.Load() {
		if q != p && q.waiting.Load() && q.before(p) {
			return true
		}
	}
	return false
}

// park blocks p until a token arrives, unless the re-check after announcing
// parked finds no waiter ahead of it or the execution aborted.
func (s *Sched) park(p *Proc) {
	p.parked.Store(true)
	if s.waiterBefore(p) && !s.aborted.Load() {
		<-p.wake
	}
	p.parked.Store(false)
}

// wakeNext hands a token to the smallest waiter other than p, the one that
// is next among the waiters now that p holds the turn, if it is parked.
func (s *Sched) wakeNext(p *Proc) {
	var next *Proc
	for _, q := range *s.procs.Load() {
		if q != p && q.waiting.Load() && (next == nil || q.before(next)) {
			next = q
		}
	}
	if next != nil && next.parked.Load() {
		next.token()
	}
}

// token puts a wake token in p's channel without blocking; a token already
// pending is enough.
func (p *Proc) token() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}
