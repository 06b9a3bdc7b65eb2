package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"rfdet/internal/alloc"
	"rfdet/internal/api"
	"rfdet/internal/kendo"
	"rfdet/internal/mem"
	"rfdet/internal/racecheck"
	"rfdet/internal/slicestore"
	"rfdet/internal/trace"
	"rfdet/internal/vclock"
	"rfdet/internal/vtime"
)

// Synchronization operations (§4.1).
//
// Every operation runs on its thread's own goroutine in one frame, and its
// body is the only code of its own:
//
//   - begin, the enter half, takes the deterministic Kendo turn (turn) and the
//     commit monitor (enter), commits the slice pre-cut before the turn
//     (finishSlice) and counts the operation. It returns the slice, which the
//     body publishes (commitSliceLocked) where its order requires.
//   - end, the leave half, starts the next slice (beginSlice); pass then records
//     the operation (syncEvent), ticks the Kendo clock past it, which passes the
//     turn (finishOpLocked), and gives the monitor up (leave); last, end applies
//     the slices the body acquired (applySlices), off the monitor.
//   - block, the blocking tail, is Lock's, Wait's, Join's and Barrier's leave
//     half when they wait: see its comment.
//   - abortLocked fails the execution from inside a body and leaves the
//     monitor; the body panics with what it returns.
//
// Lock is one exception, for the reason its comment gives: it enters without
// finishSlice, commits inside the section (endSliceLocked) only when its slice
// ends, and when the slice continues leaves through pass alone. Unlock is the
// other: it mostly takes no turn at all.
//
// Only the order of a release needs the turn, not the work that produces its
// data: the diff reads the thread's own space and writes its scratch, which no
// other thread touches while this one runs, so it runs before the wait
// (waitTurn) and overlaps the turn holder's operation.
//
// Nor does a release need to wait for its order (DESIGN.md §6): what Unlock
// does to shared state is fixed by its (clock, tid) key and by what earlier
// keys did, and it returns nothing. So Unlock runs its thread-local half at
// once and leaves the ordered half in its thread's release record at the key
// (deferUnlock), for runReleaseLocked to run once, under mu. enter first runs
// each pending record whose key holds the turn, in key order (drainLocked):
// the Unlocks Kendo would have admitted before the section. A record whose
// handoff wakes a thread below the section's key stops the drain where that
// thread comes first, and sends the section back to wait for the turn
// (lockTurn). A grant queue's head takes its mutex's pending release over when
// the release's key holds the turn (sleep); an Unlock whose mutex has a waiter
// runs its record itself, under the turn. Five rules keep the order the turn
// gave: (1) a record is published before the tick past its key; (2) a thread
// defers one release at a time, so its next stamps its slice with the bumped
// clock; (3) the record captures what the ordered half reads of the releaser:
// the slice, vt and, under RaceDetect, the harvested reads; (4) off the turn
// the releaser touches none of what the runner writes — slicePtrs, vtime, its
// readers' marks, st.SlicesCreated; (5) records allocate nothing.
//
// There is one monitor over one metadata space, as in the paper (§4.1,
// §4.2), and an operation enters it once (a deferred Unlock counts the
// runner's section as its entry). The turn admits one operation at a time, so
// monitor sections overlap only where a waker's tail meets the next operation
// of the thread it just woke, or a section that runs records — a take-over,
// an Unlock running its own — meets the turn holder's; the mutex orders those
// and the abort path, which holds no turn.
//
// Where a commit or an apply falls inside the section — every slice commits
// there, an atomic applies what it acquired before it reads the word, and a
// waker pre-merges into blocked peers — it delays nobody: the turn is held
// until finishOpLocked, so no other operation is at enter.
//
// Wakeups never re-enter the monitor at all: the waker — which holds the
// turn and the monitor while the sleeper is provably blocked — performs the
// sleeper's whole acquire on its behalf (prepareAcquireLocked) and hands the
// collected slices over in the wake event. The woken thread just installs
// its new virtual time, restarts slice monitoring and applies the slices to
// its private memory, all without shared state. This is what makes every
// propagation decision a pure function of the deterministic clocks even
// though threads wake with arbitrary host timing — and it removes the wake
// path from the monitor's critical section entirely.

// turn waits for the deterministic Kendo turn before a synchronization
// operation (§4.1). It panics with errAborted if the execution failed.
func (t *thread) turn() {
	if !t.waitTurn() {
		panic(errAborted)
	}
	t.vt += vtime.SyncBase
}

// waitTurn is how a synchronization operation or a thread exit takes the
// turn: publish the clock, pre-cut the slice, then wait, reporting whether the
// execution is still live. The pre-cut comes after publish, so no peer waits
// behind an unpublished lag while it runs (DESIGN.md §6), and before the wait,
// so the diff holds no turn.
func (t *thread) waitTurn() bool {
	t.publish(0, t.exec.chunk.first)
	t.precut()
	return t.awaitTurn()
}

// awaitTurn waits for the turn at the published key; the turn-wait span
// measures the wait alone.
func (t *thread) awaitTurn() bool {
	t.ranSeen = t.exec.ran.Load()
	ts := t.tb.Now()
	ok, waited := t.exec.sched.WaitForTurn(t.proc)
	if waited {
		t.st.TurnWaits++
		t.tb.Span(trace.PhaseTurnWait, ts)
	}
	return ok
}

// begin is the frame's enter half: the turn, the monitor, the commit of the
// slice pre-cut before the turn, and the operation's counter. It returns the
// slice, nil when it made no modifications. The commit follows enter, which
// runs the thread's own deferred release: its stamp reads the bumped clock.
//
//detvet:acquires t.exec.mu
func (t *thread) begin(counter *uint64) *slicestore.Slice {
	t.turn()
	t.exec.enter(t)
	s := t.finishSlice()
	*counter++
	return s
}

// end is the frame's leave half: the next slice begins, pass, and the slices
// the operation acquired are applied, off the monitor.
//
//detvet:releases t.exec.mu
func (t *thread) end(op string, addr api.Addr, slices []*slicestore.Slice) {
	t.beginSlice()
	t.pass(op, addr)
	t.applySlices(slices, false)
}

// pass records the operation, passes the turn and leaves the monitor.
//
//detvet:releases t.exec.mu
func (t *thread) pass(op string, addr api.Addr) {
	t.syncEvent(op, addr)
	t.finishOpLocked()
	t.exec.leave(t)
}

// block is the frame's blocking tail, in place of the leave half: the thread
// is marked blocked at the site format describes, passes the turn, leaves the
// monitor and sleeps. Its waker has done its acquire for it and hands it the
// result (prepareAcquireLocked, exitLocked, the barrier's last arrival), so
// nothing after the wake touches shared state: the thread installs the wake
// event's virtual time, starts its next slice, records op and applies the
// slices the event carries.
//
//detvet:releases t.exec.mu
func (t *thread) block(op string, addr api.Addr, format string, ops ...uint64) {
	t.blockLocked(format, ops...)
	t.finishOpLocked()
	t.exec.leave(t)
	ev := t.sleep()
	t.vt = ev.vt
	if op == "join" {
		// The tail's one asymmetry: a woken joiner ticks past its operation
		// twice, and the kendo= field of every blocked join in the pinned
		// traces carries the second tick.
		t.finishOpLocked()
	}
	t.beginSlice()
	t.syncEvent(op, addr)
	t.applySlices(ev.slices, false)
}

// abortLocked fails the execution with the thread's misuse, described by
// format and args, and leaves the monitor. It returns errAborted, for the
// caller to panic with: the explicit panic ends the path where lockcheck can
// see it.
//
//detvet:releases t.exec.mu
func (t *thread) abortLocked(format string, args ...any) error {
	t.exec.failLocked(fmt.Errorf("rfdet: thread %d: %s", t.id, fmt.Sprintf(format, args...)))
	t.exec.leave(t)
	return errAborted
}

// finishOpLocked advances the Kendo clock past the synchronization operation
// itself. This must happen only after the operation's monitor work is done:
// bumping earlier could make another thread eligible and let it contend for
// the monitor nondeterministically.
func (t *thread) finishOpLocked() {
	t.publish(2, t.exec.chunk.first)
}

// Lock implements pthread_mutex_lock (§4.1). Whether the current slice ends
// at all depends on monitor-guarded state (slice merging, §4.5), so Lock's
// pre-cut is speculative and its commit happens inside the monitor
// (endSliceLocked). When the slice continues, the pre-cut is dropped unused:
// host time only, since every charge and counter is in the commit.
func (t *thread) Lock(m api.Addr) {
	t.turn()
	t.exec.enter(t)
	t.st.Locks++
	sv := t.exec.syncvar(m)

	if sv.held {
		if sv.owner == t.id {
			panic(t.abortLocked("recursive lock of mutex %#x", uint64(m)))
		}
		// Contended: end the slice, reserve our place in the deterministic
		// grant queue, pre-merge (prelock, §4.5), and sleep. The releaser hands
		// us ownership with the acquire already done (prepareAcquireLocked).
		t.endSliceLocked()
		sv.enqueue(t.id)
		t.prelockLocked(sv)
		if h := t.exec.threads[sv.owner]; sv.lockQ.len() == 1 && h.scratch.rel.key.Load() != 0 && h.scratch.rel.sv == sv {
			t.watch = h // the head takes the deferred release over (sleep)
		}
		t.block("lock", m, "lock %#x", uint64(m))
		return
	}

	sv.held = true
	sv.owner = t.id
	t.hold(sv)
	if t.exec.opts.SliceMerging && sv.lastTid == int32(t.id) {
		// Slice merging (§4.5): the last release of this variable was ours,
		// so no remote updates can be pending and the current slice may
		// simply continue across the acquire.
		t.st.SlicesMerged++
		t.pass("lock*", m)
		return
	}
	t.endSliceLocked()
	t.end("lock", m, t.acquireCollectLocked(sv))
}

// syncvar returns (creating if needed) the internal synchronization variable
// at address a.
//
//detvet:holds exec.mu
func (e *exec) syncvar(a api.Addr) *syncVar {
	sv, ok := e.syncvars[a]
	if !ok {
		sv = &syncVar{addr: a, owner: -1, lastTid: -1}
		e.syncvars[a] = sv
	}
	return sv
}

// handoffLocked grants a released mutex to the head of its queue: the
// remaining waiters pre-merge the release in parallel with the new holder's
// critical section (prelock, §4.5), and the new holder is woken with its
// acquire pre-collected. vt is the release's virtual time.
//
//detvet:holds exec.mu
func (e *exec) handoffLocked(sv *syncVar, releaser *thread, vt vtime.Time) {
	next := sv.dequeue()
	sv.owner = next
	e.prelockReleaseLocked(sv, releaser)
	w := e.threads[next]
	w.hold(sv)
	e.wakeLocked(w, e.prepareAcquireLocked(w, sv, vt))
}

// Unlock implements pthread_mutex_unlock (§4.1): a release that records
// lastTid/lastTime before the variable is handed over. It takes the turn
// only for a mutex it has not recorded as held (hold) or with its previous
// deferred release still pending, which the turn's entry then runs.
func (t *thread) Unlock(m api.Addr) {
	if sv := t.drop(m); sv != nil && t.scratch.rel.key.Load() == 0 && !t.exec.sched.Aborted() {
		t.deferUnlock(sv)
		return
	}
	s := t.begin(&t.st.Unlocks)
	sv := t.exec.syncvar(m)
	if !sv.held || sv.owner != t.id {
		panic(t.abortLocked("unlock of mutex %#x not held by it", uint64(m)))
	}
	t.unlockLocked(sv, t.commitSliceLocked(s), t.vt)
	t.end("unlock", m, nil)
}

// deferUnlock is Unlock off the turn, in the order Unlock's frame runs its
// thread-local half. The record is published (rel.key) before finishOpLocked
// ticks past its key. A waiter queued on the mutex (sv.queued) would wait for
// the next turn-taker: the thread runs the record itself, under the turn.
func (t *thread) deferUnlock(sv *syncVar) {
	t.publish(0, t.exec.chunk.first)
	t.precut()
	t.vt += vtime.SyncBase
	s := t.finishSlice()
	t.st.MonitorAcquires++ // the section is the runner's; the wait is zero
	t.tb.Span(trace.PhaseMonitorWait, t.tb.Now())
	t.st.Unlocks++
	rel := &t.scratch.rel
	rel.sv, rel.slice, rel.vt = sv, s, t.vt
	rel.reads, t.sliceReads = t.sliceReads, nil
	t.beginSlice()
	// The event precedes the record, whose run bumps the clock it reads.
	t.syncEvent("unlock", sv.addr)
	if t.exec.opts.Trace {
		ev := &t.trace[len(t.trace)-1]
		ev.vtime = ev.vtime.Bump(int(t.id))
	}
	t.exec.deferred.Add(1)
	rel.key.Store(t.proc.Clock())
	for sv.queued.Load() != 0 && rel.key.Load() != 0 {
		if !t.awaitTurn() {
			panic(errAborted)
		}
		t.exec.drain(t, t)
	}
	t.finishOpLocked()
}

// runReleaseLocked is the ordered half of t's deferred Unlock, with what the
// record captured, run at its key by whichever thread holds mu then.
//
//detvet:holds exec.mu
func (t *thread) runReleaseLocked() {
	rel := &t.scratch.rel
	tend := t.publishSliceLocked(rel.slice)
	if t.exec.races != nil {
		t.recordAccessLocked(rel.slice, tend, rel.reads, rel.vt)
	}
	t.unlockLocked(rel.sv, tend, rel.vt)
	rel.sv, rel.slice, rel.reads = nil, nil, nil
	rel.key.Store(0)
	t.exec.ran.Add(1)
}

// unlockLocked releases mutex sv at the just-ended slice's timestamp tend and
// virtual time vt: it goes to the head of its queue if anyone waits, and is
// free otherwise.
//
//detvet:holds exec.mu
func (t *thread) unlockLocked(sv *syncVar, tend vclock.VC, vt vtime.Time) {
	t.releaseLocked(sv, tend, vt)
	if sv.lockQ.len() > 0 {
		t.exec.handoffLocked(sv, t, vt)
		return
	}
	sv.held = false
	sv.owner = -1
}

// releaseLocked records this thread as the variable's last releaser, with
// the just-ended slice's timestamp as the release time.
func (t *thread) releaseLocked(sv *syncVar, tend vclock.VC, vt vtime.Time) {
	sv.lastTid = int32(t.id)
	sv.lastTime = tend
	sv.lastVT = vt
}

// hold records a grant of mutex sv, under the monitor, for Unlock to find off
// it; a mutex past the slots is not recorded, and its Unlock takes the turn.
func (t *thread) hold(sv *syncVar) {
	if i := slices.Index(t.held[:], nil); i >= 0 {
		t.held[i] = sv
	}
}

// drop forgets mutex m, which the thread is releasing, and returns its
// variable, nil if m was not recorded.
func (t *thread) drop(m api.Addr) *syncVar {
	for i, h := range t.held {
		if h != nil && h.addr == m {
			t.held[i] = nil
			return h
		}
	}
	return nil
}

// Wait implements pthread_cond_wait: a release of the mutex and of the wait
// itself, then (after the signal) an acquire of both the signaler's release
// and the mutex (§4.1).
func (t *thread) Wait(c, m api.Addr) {
	t.drop(m)
	s := t.begin(&t.st.Waits)
	e := t.exec
	svm := e.syncvar(m)
	if !svm.held || svm.owner != t.id {
		panic(t.abortLocked("cond wait with mutex %#x not held", uint64(m)))
	}
	tend := t.commitSliceLocked(s)
	// Queue on the condition variable, in deterministic order. The handoff
	// below wakes the next owner, whose frozen Kendo clock is below ours: it
	// wins the turn at once, and its next operation waits at enter until this
	// section is over — so its signal finds us queued and Blocked.
	e.syncvar(c).condQ.push(condEntry{tid: t.id, mutex: m})
	// Release the mutex — exactly like Unlock, including the prelock
	// pre-merge for the waiters that stay queued: a release performed inside
	// pthread_cond_wait is a release like any other, and skipping the
	// pre-merge here silently lost the §4.5 overlap on condvar-heavy
	// workloads.
	t.unlockLocked(svm, tend, t.vt)
	t.syncEvent("wait", c)
	// We are woken only once we own the mutex again (the signaler either
	// granted it directly or queued us on it); whoever handed the mutex
	// over performed both our acquires — the signaler's release and the
	// mutex release — on our behalf.
	t.block("wake", c, "cond wait %#x (mutex %#x)", uint64(c), uint64(m))
}

// Signal implements pthread_cond_signal (§4.1): a release whose timestamp
// is delivered to the one waiter it wakes.
func (t *thread) Signal(c api.Addr) { t.signal(c, false) }

// Broadcast implements pthread_cond_broadcast: like Signal, for all waiters,
// woken in deterministic queue order.
func (t *thread) Broadcast(c api.Addr) { t.signal(c, true) }

func (t *thread) signal(c api.Addr, all bool) {
	tend := t.commitSliceLocked(t.begin(&t.st.Signals))
	e := t.exec
	svc := e.syncvar(c)
	n, op := 1, "signal"
	if all {
		n, op = svc.condQ.len(), "broadcast"
	}
	for i := 0; i < n && svc.condQ.len() > 0; i++ {
		entry := svc.condQ.pop()
		w := e.threads[entry.tid]
		w.pendingSignal = &signalRecord{tid: int32(t.id), v: tend, vt: t.vt}
		svm := e.syncvar(entry.mutex)
		if svm.held {
			svm.enqueue(entry.tid)
		} else {
			svm.held = true
			svm.owner = entry.tid
			w.hold(svm)
			e.wakeLocked(w, e.prepareAcquireLocked(w, svm, t.vt))
		}
	}
	t.end(op, c, nil)
}

// Barrier implements a pthreads-style barrier (§4.1): both an acquire and a
// release. The arrivals' modifications are merged into the lowest-ID
// arrival's memory in ascending thread-ID order, and every arrival leaves
// with a copy-on-write copy of that merged memory — exactly the paper's
// barrier algorithm. The merge mutates the blocked arrivals' spaces, which
// is only sound while the monitor proves they stay blocked, so unlike the
// acquire paths it runs entirely under the lock.
//
// Barrier arrivals hold no pending records (lazy writes, §4.5): each flushes
// its own before it blocks, and nothing pends onto a barrier-blocked thread —
// a pend comes only from the thread's own acquires or from a prelock
// pre-merge, which reaches a lock's queue, never a barrier's. So the leader
// merges into a space with nothing pended, and an arrival's space can be
// replaced by the leader's clone without dropping a record.
func (t *thread) Barrier(b api.Addr, n int) {
	if n <= 0 {
		// Pre-turn failure: no turn is held and no monitor is entered, so
		// this abort reaches failLocked from outside the usual in-turn
		// paths, at any point of a peer's operation except inside its
		// monitor section (enter's comment says why that is enough). The
		// unwind below goes through threadExit's abnormal path.
		// TestZeroCountBarrierAborts exercises exactly this: peers blocked
		// on, or entering, locks, condvars and joins when the abort lands.
		t.exec.fail(fmt.Errorf("rfdet: thread %d: barrier with count %d", t.id, n))
		panic(errAborted)
	}
	tend := t.commitSliceLocked(t.begin(&t.st.Barriers))
	t.flushAllPending(true)
	e := t.exec
	sv := e.syncvar(b)
	sv.barArrivals = append(sv.barArrivals, barArrival{tid: t.id, v: tend, vt: t.vt})
	if len(sv.barArrivals) < n {
		// The last arrival merges on our behalf and hands us the merged
		// memory.
		t.block("barrier", b, "barrier %#x (%d/%d)", uint64(b), uint64(len(sv.barArrivals)), uint64(n))
		return
	}
	// Last arrival: perform the merge on behalf of everyone. All other
	// arrivals are provably blocked, so their thread state may be mutated
	// under the monitor.
	arrivals := sv.barArrivals
	sv.barArrivals = nil
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].tid < arrivals[j].tid })

	leader := e.threads[arrivals[0].tid]
	releaseVT := arrivals[0].vt
	merged := arrivals[0].v.Clone()
	for _, a := range arrivals[1:] {
		releaseVT = vtime.Max(releaseVT, a.vt)
		merged = merged.Join(a.v)
	}
	// Merge in ascending thread-ID order, so later (higher-ID) arrivals
	// deterministically win write-write races (§4.1). Collection reads only
	// clocks and slice pointers, never memory, so the concatenated list is
	// applied once, after every arrival is collected (applyNow); the
	// virtual-time charge stays per-slice, as if each had been applied in turn.
	var mergeCost vtime.Time
	var propagated []*slicestore.Slice
	for _, a := range arrivals[1:] {
		from := e.threads[a.tid]
		slices := leader.collectLocked(from, a.v)
		for _, sl := range slices {
			mergeCost += vtime.ApplyCost(uint64(len(sl.Mods)), sl.Bytes)
			leader.st.SlicesPropagated++
			leader.st.BytesPropagated += sl.Bytes
		}
		propagated = append(propagated, slices...)
		leader.slicePtrs = append(leader.slicePtrs, slices...)
		leader.vtime = leader.vtime.Join(a.v)
	}
	if len(propagated) > 0 {
		ts := leader.tb.Now()
		leader.applyNow(propagated)
		leader.tb.Span(trace.PhaseApply, ts)
	}
	releaseVT += vtime.FencePhase + mergeCost
	leader.vt = vtime.Max(leader.vt, releaseVT)
	leader.vtime = leader.vtime.Join(merged)

	// Give every other arrival a copy-on-write copy of the merged memory,
	// the leader's slice list, and the merged clock.
	for _, a := range arrivals[1:] {
		w := e.threads[a.tid]
		w.space.Release()
		w.space = leader.space.Clone()
		w.space.SetFaultHandler(w.onFault)
		// Clone does not inherit dirty tracking; re-enable it for the
		// arrival's next slice.
		w.enableDirtyTracking()
		// Not an append: every reader's mark on w's old list is void.
		w.slicePtrs = append(w.slicePtrs[:0], leader.slicePtrs...)
		w.forgetMarks()
		w.vtime = w.vtime.Join(merged)
		w.preMerged = nil
	}
	// Resume everyone.
	for _, a := range arrivals {
		if a.tid == t.id {
			continue
		}
		e.wakeLocked(e.threads[a.tid], wakeEvent{vt: releaseVT})
	}
	t.vt = vtime.Max(t.vt, releaseVT)
	t.end("barrier", b, nil)
}

// Spawn implements pthread_create (§4.1): a release. The child inherits the
// parent's memory by copy-on-write cloning and the parent's slice-pointer
// list, and gets the next deterministic thread ID.
func (t *thread) Spawn(fn api.ThreadFunc) api.ThreadID {
	s := t.begin(&t.st.Forks)
	e := t.exec
	if len(e.threads) >= alloc.MaxThreads {
		panic(t.abortLocked("too many threads (max %d)", alloc.MaxThreads))
	}
	// Lazily pended updates must be resident before the memory is cloned.
	// Pages with pended updates are never snapshotted (the flush happens
	// before the snapshot on first touch), so the pre-cut diff commutes with
	// this flush.
	t.flushAllPending(true)
	tend := t.commitSliceLocked(s)

	id := api.ThreadID(len(e.threads))
	child := &thread{
		exec:       e,
		id:         id,
		fn:         fn,
		monitoring: true,
		space:      t.space.Clone(),
		vtime:      tend.Clone().Set(int(id), 1),
		vt:         t.vt + vtime.ThreadSpawn,
		wake:       make(chan wakeEvent, 1), //detvet:nativesync 1-buffered wake mailbox; exactly one monitor-ordered waker per sleep.
		scratch:    new(threadScratch),
	}
	child.space.SetFaultHandler(child.onFault)
	child.enableDirtyTracking()
	child.slicePtrs = append(child.slicePtrs, t.slicePtrs...)
	if e.opts.LazyWrites {
		child.pending = make(map[mem.PageID]*mem.PendingPage)
	}
	child.proc = e.sched.Register(int32(id), t.proc.Clock()+1)
	child.tb = e.phases.NewThread(int(id))
	e.alloc.Register(int(id))
	e.threads = append(e.threads, child)
	e.liveCount++
	e.maxLive = max(e.maxLive, e.liveCount)
	// From the first fork on, the main thread must monitor its
	// modifications (§4.1).
	if !t.monitoring {
		t.monitoring = true
		t.enableDirtyTracking()
		if e.opts.LazyWrites && t.pending == nil {
			t.pending = make(map[mem.PageID]*mem.PendingPage)
		}
	}
	e.wg.Add(1)
	//detvet:nativesync thread bodies run on goroutines; determinism comes from Kendo turns, not goroutine scheduling.
	go e.runThread(child)
	t.end("spawn", api.Addr(id), nil)
	return id
}

// Join implements pthread_join (§4.1): an acquire of the joined thread's
// exit release; all of the child's modifications are propagated here.
func (t *thread) Join(id api.ThreadID) {
	s := t.begin(&t.st.Joins)
	e := t.exec
	if id < 0 || int(id) >= len(e.threads) {
		panic(t.abortLocked("join of unknown thread %d", id))
	}
	if id == t.id {
		panic(t.abortLocked("join of itself"))
	}
	target := e.threads[id]
	t.commitSliceLocked(s)
	if target.proc.Status() != kendo.Exited {
		// The exiting thread performs our acquire of its exit release
		// (exitLocked) and hands us the slices to apply.
		target.joiners = append(target.joiners, t)
		t.block("join", api.Addr(id), "join of thread %d", uint64(id))
		return
	}
	t.end("join", api.Addr(id), t.acquireFromCollectLocked(int32(target.id), target.exitV, target.exitVT))
}

// AtomicAdd64 is the §4.6 low-level-atomics extension: a Kendo-ordered
// acquire+release on the word's own internal synchronization variable, with
// the store published as a one-word micro-slice.
func (t *thread) AtomicAdd64(a api.Addr, delta uint64) uint64 {
	var out uint64
	t.atomicOp(a, func(cur uint64) (uint64, bool) {
		out = cur + delta
		return out, true
	})
	return out
}

// AtomicCAS64 atomically compares-and-swaps the word at a, deterministically.
func (t *thread) AtomicCAS64(a api.Addr, old, new uint64) bool {
	var ok bool
	t.atomicOp(a, func(cur uint64) (uint64, bool) {
		ok = cur == old
		return new, ok
	})
	return ok
}

// atomicOp runs op as an acquire (propagate the latest release of the
// word's internal variable) followed, when op writes, by a release: the
// write is published as a one-word micro-slice and recorded as the
// variable's last release. The write itself bypasses slice monitoring — it
// is carried by the micro-slice, not by page diffing.
func (t *thread) atomicOp(a api.Addr, op func(cur uint64) (newVal uint64, wrote bool)) {
	s := t.begin(&t.st.AtomicsOps)
	e := t.exec
	sv := e.syncvar(a)
	t.commitSliceLocked(s)
	// The acquired updates must be resident (or pended) before the word is
	// read, so this acquire applies inside the section.
	t.applySlices(t.acquireCollectLocked(sv), false)
	cur := t.space.Load64(uint64(a)) // flushes lazily pended updates if any
	newVal, wrote := op(cur)
	t.vt += 2 * vtime.MemOp
	if e.races != nil {
		// The atomic access is its own Kendo-ordered micro-operation. Record
		// it as a dedicated Atomic access (atomics are totally ordered by the
		// arbiter and never race with each other) and keep the word's read
		// out of the enclosing slice's read set: the slice's end clock can be
		// concurrent with a later atomic write that this operation in fact
		// happens-before through the word's own synchronization variable. The
		// read tracker holds exactly this Load64 here — the previous slice
		// was harvested by finishSlice and propagation applies bypass the
		// tracker — so resetting it removes just the atomic read.
		t.space.ResetReads()
		acc := racecheck.Access{
			Tid:    int32(t.id),
			VT:     uint64(t.vt),
			Clock:  t.vtime.Clone(),
			Reads:  []racecheck.Range{{Addr: uint64(a), Len: 8}},
			Atomic: true,
		}
		if wrote {
			acc.Writes = []racecheck.Range{{Addr: uint64(a), Len: 8}}
		}
		t.st.RaceRecords++
		t.st.RaceReadBytes += 8
		e.races.Record(acc)
	}
	if wrote {
		mods := []mem.Run{{Addr: uint64(a), Data: binary.LittleEndian.AppendUint64(make([]byte, 0, 8), newVal)}}
		t.space.ApplyRuns(mods)
		// The micro-slice is published like any slice, and its stamp, the
		// pre-bump clock, is the release time. The access above is its race
		// record, so it skips commitSliceLocked's.
		micro := &slicestore.Slice{Tid: int32(t.id), Time: t.vtime.Clone(), Mods: mods, Bytes: 8}
		t.releaseLocked(sv, t.publishSliceLocked(micro), t.vt)
	}
	t.end("atomic", a, nil)
}
