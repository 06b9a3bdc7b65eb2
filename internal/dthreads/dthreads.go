// Package dthreads implements the global-barrier strong-DMT baselines the
// paper compares against (§2, Figure 1; §5.2).
//
// With Quantum == 0 the runtime behaves like DThreads (Liu et al., SOSP'11):
// threads run isolated between synchronization operations; a parallel phase
// ends when *every* active thread has reached its next synchronization
// operation (or exit); a serial phase then lets each arrival, in
// deterministic token (thread-ID) order, commit its page diffs into a global
// store and execute its synchronization operation; finally every thread
// refreshes its view from the global store and the next parallel phase
// begins. The global fence is exactly the overhead RFDet eliminates: a
// compute-heavy thread delays every other thread's synchronization (the
// imbalance that makes lu-non ~10x slower under DThreads in Figure 7), and a
// thread with no need to communicate still stops at every fence.
//
// With Quantum > 0 the runtime behaves like the CoreDet/DMP family: a
// thread must additionally stop at the fence after every Quantum logical
// instructions even if it never synchronizes — the classic bulk-synchronous
// quantum scheme of Figure 1, used here for the global-barrier ablation.
//
// Like DThreads, this runtime is strongly deterministic: fences, token order
// and lock grants are all pure functions of program input.
//
// Memory is mem.Space throughout: the global store is one, and each isolated
// thread's view is a copy-on-write clone of it, tracking dirty pages. DThreads
// write-protects each view whole; here the sweep is a charge per resident page
// at every fence, and the space itself faults a page's first write in a phase,
// where the handler takes its twin as the view's page record
// (mem.Space.SnapshotPage), as the RFDet monitors do. The fence diffs each
// record on the extents the phase wrote, while virtual time still charges a
// whole-page diff.
package dthreads

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"rfdet/internal/alloc"
	"rfdet/internal/api"
	"rfdet/internal/mem"
	"rfdet/internal/stats"
	"rfdet/internal/vtime"
)

// Runtime is a DThreads-style (Quantum == 0), CoreDet-style (Quantum > 0)
// or RCDC-style (RCDC set) deterministic runtime. It satisfies api.Runtime.
type Runtime struct {
	// Quantum is the parallel-phase length in logical instructions; 0 means
	// phases end only at synchronization operations (DThreads).
	Quantum uint64
	// RCDC enables the relaxed-consistency fast path the paper attributes
	// to RCDC's DMP-HB mode (§2, §3.1): a thread may re-acquire a lock it
	// itself last released without stopping at the global barrier — its
	// own critical-section writes are already in its view, so no
	// communication is needed. Two *different* threads still cannot hand a
	// lock over without a barrier, which is precisely the limitation §3.1
	// contrasts DLRC against.
	RCDC bool
}

// New returns a DThreads-style runtime.
func New() *Runtime { return &Runtime{} }

// NewQuantum returns a CoreDet-style runtime with the given quantum.
func NewQuantum(q uint64) *Runtime { return &Runtime{Quantum: q} }

// NewRCDC returns an RCDC-style runtime: quantum barriers plus the
// same-thread lock fast path.
func NewRCDC(q uint64) *Runtime { return &Runtime{Quantum: q, RCDC: true} }

// Name returns "dthreads", "coredet" or "rcdc".
func (r *Runtime) Name() string {
	if r.RCDC {
		return "rcdc"
	}
	if r.Quantum > 0 {
		return "coredet"
	}
	return "dthreads"
}

type wakeEvent struct {
	abort bool
}

// thread is one isolated logical thread.
type thread struct {
	exec *exec
	id   api.ThreadID
	fn   api.ThreadFunc

	// space is the thread's view: the global store while attached, else a
	// private copy-on-write clone of it (isolate).
	space *mem.Space

	vt     vtime.Time
	qused  uint64 // instructions since last fence (CoreDet quantum)
	st     api.Stats
	obs    []uint64
	wake   chan wakeEvent
	exited bool
	exitVT vtime.Time
	// attached is true while the thread writes the global store directly:
	// the main thread runs unisolated until its first pthread_create, as no
	// other memory view exists to diverge from (the same argument RFDet
	// makes in §4.1 for skipping pre-fork monitoring).
	attached bool

	joiners []*thread
}

// syncVar backs one application synchronization address.
type syncVar struct {
	held  bool
	owner api.ThreadID
	// lastOwner is the thread that last released the mutex (-1 if never
	// held), the eligibility test for RCDC's same-thread fast path.
	lastOwner api.ThreadID
	lockQ     []api.ThreadID
	condQ     []condEntry
	barQ      []api.ThreadID
}

type condEntry struct {
	tid   api.ThreadID
	mutex api.Addr
}

// arrival is one thread stopped at the current fence.
type arrival struct {
	t          *thread
	runs       []mem.Run
	dirtyBytes uint64
	vt         vtime.Time
	// action executes the thread's synchronization operation in the serial
	// phase and reports whether the thread resumes into the next parallel
	// phase.
	action func() (resume bool)
}

// exec is one program execution.
type exec struct {
	quantum uint64
	rcdc    bool
	alloc   *alloc.Allocator
	global  *mem.Space

	mu       sync.Mutex
	threads  []*thread
	syncvars map[api.Addr]*syncVar
	// active counts threads expected at the current fence.
	active   int
	live     int
	arrivals []*arrival
	// resumed collects threads to refresh and wake at the end of the
	// current serial phase.
	resumed []*thread
	// phaseVT is the virtual time at which the last serial phase completed.
	phaseVT vtime.Time
	phases  uint64
	footHW  uint64
	err     error
	aborted bool
	wg      sync.WaitGroup
}

func (e *exec) syncvar(a api.Addr) *syncVar {
	sv, ok := e.syncvars[a]
	if !ok {
		sv = &syncVar{owner: -1, lastOwner: -1}
		e.syncvars[a] = sv
	}
	return sv
}

// Run executes main as thread 0.
func (r *Runtime) Run(main api.ThreadFunc) (*api.Report, error) {
	e := &exec{
		quantum:  r.Quantum,
		rcdc:     r.RCDC,
		alloc:    alloc.New(),
		global:   mem.NewSpace(),
		syncvars: make(map[api.Addr]*syncVar),
	}
	e.alloc.Register(0)
	t0 := &thread{
		exec:     e,
		id:       0,
		fn:       main,
		space:    e.global, // attached until the first spawn
		wake:     make(chan wakeEvent, 1),
		attached: true,
	}
	e.threads = append(e.threads, t0)
	e.active, e.live = 1, 1

	start := stats.Now()
	e.wg.Add(1)
	go e.runThread(t0)
	e.wg.Wait()
	elapsed := stats.Since(start)

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return nil, e.err
	}
	rep := &api.Report{
		Observations: make(map[api.ThreadID][]uint64, len(e.threads)),
		Elapsed:      elapsed,
		Threads:      len(e.threads),
	}
	d := api.NewDigest()
	for _, t := range e.threads {
		rep.Stats.Add(&t.st)
		rep.Observations[t.id] = t.obs
		d = d.Log(t.id, t.obs)
		if uint64(t.exitVT) > rep.VirtualTime {
			rep.VirtualTime = uint64(t.exitVT)
		}
	}
	rep.OutputHash = uint64(d.Word(e.global.Hash()))
	rep.Stats.SharedMemBytes = e.alloc.HighWater()
	rep.Stats.RuntimeMemBytes = e.footHW
	return rep, nil
}

func (e *exec) runThread(t *thread) {
	defer e.wg.Done()
	defer func() {
		r := recover()
		if r != nil && r != errAborted { //nolint:errorlint // sentinel identity
			e.fail(fmt.Errorf("dthreads: thread %d panicked: %v", t.id, r))
		}
		t.exit(r != nil)
	}()
	t.fn(t)
}

var errAborted = fmt.Errorf("dthreads: execution aborted")

func (e *exec) fail(err error) {
	e.mu.Lock()
	e.failLocked(err)
	e.mu.Unlock()
}

func (e *exec) failLocked(err error) {
	if e.aborted {
		return
	}
	e.aborted = true
	e.err = err
	for _, t := range e.threads {
		if !t.exited {
			select {
			case t.wake <- wakeEvent{abort: true}:
			default:
			}
		}
	}
}

// isolate makes view the thread's private memory, tracking dirty pages, with
// onFault installed (the method value is an allocation, so once per view). It
// returns the view's resident pages: the pages DThreads write-protects whole,
// which refreshLocked charges as the fence's mprotect sweep. Spawn's views are
// not charged — neither the parent's first nor the child's — and charging them
// would move every DThreads virtual time.
func (t *thread) isolate(view *mem.Space) int {
	t.space = view
	view.SetFaultHandler(t.onFault)
	view.SetDirtyTracking(true)
	return int(view.ResidentBytes() / mem.PageSize)
}

// onFault is the twin-page creation handler: the view faults a phase's first
// store to a page, the one that would hit DThreads' write protection, and
// nothing else — no view pends. The twin is the view's page record
// (mem.Space.SnapshotPage).
func (t *thread) onFault(pid mem.PageID, _ bool) {
	t.st.PageFaults++
	t.vt += vtime.Fault + vtime.SnapshotPage
	t.space.SnapshotPage(pid)
	t.st.StoresWithCopy++
}

// computeDiff diffs the phase's dirty pages against their twins, each on the
// extents the phase wrote, and charges a whole-page diff per page; ResetDirty
// hands the twins back to the page-buffer pool.
func (t *thread) computeDiff() []mem.Run {
	var runs []mem.Run
	var buf []byte
	for _, pid := range t.space.DirtyPages() {
		runs, buf = mem.AppendDiffPageExtents(runs, buf, pid, t.space.SnapshotOf(pid), t.space.PageData(pid), t.space.DirtyExtentsOf(pid))
		t.vt += vtime.DiffPage
	}
	t.space.ResetDirty()
	return runs
}

// fence stops the thread at the global barrier with the given serial-phase
// action (§2: the parallel phase ends only when every active thread has
// arrived — the overhead RFDet eliminates). It returns after the serial
// phase, once the thread has been resumed (immediately, or later for
// threads whose action blocked them).
func (t *thread) fence(action func() bool) {
	e := t.exec
	e.mu.Lock()
	if e.aborted {
		e.mu.Unlock()
		panic(errAborted)
	}
	dirty := uint64(len(t.space.DirtyPages())) * mem.PageSize
	ar := &arrival{t: t, runs: t.computeDiff(), dirtyBytes: dirty, vt: t.vt, action: action}
	e.arrivals = append(e.arrivals, ar)
	t.qused = 0
	if len(e.arrivals) == e.active {
		leaderResumed := e.serialPhaseLocked(t)
		e.mu.Unlock()
		if !leaderResumed {
			t.sleep()
		}
		return
	}
	e.mu.Unlock()
	t.sleep()
}

func (t *thread) sleep() {
	ev := <-t.wake
	if ev.abort {
		panic(errAborted)
	}
}

// serialPhaseLocked runs the serial phase: in ascending thread-ID order each
// arrival commits its diffs to the global store (token order resolves racy
// writes deterministically, higher IDs winning) and executes its
// synchronization action; then every resumed thread gets a fresh
// copy-on-write view of the global store. Returns whether the leader (the
// last arriver) resumed.
func (e *exec) serialPhaseLocked(leader *thread) bool {
	arrivals := e.arrivals
	e.arrivals = nil
	e.phases++
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].t.id < arrivals[j].t.id })

	// The fence: everyone waits for the slowest arrival.
	phaseEnd := e.phaseVT
	var dirtyBytes uint64
	for _, a := range arrivals {
		phaseEnd = vtime.Max(phaseEnd, a.vt)
		dirtyBytes += a.dirtyBytes
	}
	phaseEnd += vtime.FencePhase

	// Serialized commits + synchronization actions, token order.
	var serialCost vtime.Time
	for _, a := range arrivals {
		e.global.ApplyRuns(a.runs)
		serialCost += vtime.ApplyCost(uint64(len(a.runs)), mem.RunBytes(a.runs))
		if a.action != nil {
			if a.action() {
				e.resumed = append(e.resumed, a.t)
			}
		}
		serialCost += vtime.SyncBase
	}
	resumeVT := phaseEnd + serialCost
	e.phaseVT = resumeVT

	// Footprint high-water: the global store plus the arrivals' private
	// dirty copies and twins (Table 1, "DThreads (MB)").
	foot := e.global.ResidentBytes() + 2*dirtyBytes
	if foot > e.footHW {
		e.footHW = foot
	}

	// Refresh and wake every resumed thread.
	resumed := e.resumed
	e.resumed = nil
	leaderResumed := false
	for _, w := range resumed {
		w.refreshLocked(resumeVT)
		if w == leader {
			leaderResumed = true
			continue
		}
		w.wake <- wakeEvent{}
	}
	if e.live > 0 && e.active == 0 && !e.aborted {
		e.failLocked(fmt.Errorf("dthreads: deterministic deadlock: all %d live threads blocked", e.live))
	}
	return leaderResumed
}

// refreshLocked replaces the thread's view with a fresh copy-on-write clone
// of the global store and charges its re-protection (the per-phase mprotect
// sweep that DThreads pays at every fence).
func (t *thread) refreshLocked(at vtime.Time) {
	if t.attached {
		t.vt = at
		return
	}
	t.space.Release()
	n := t.isolate(t.exec.global.Clone())
	t.st.PageProtects += uint64(n)
	t.vt = at + vtime.Time(n)*vtime.ProtectPage + vtime.LockHandoff
}

// exit is the thread's final synchronization operation.
func (t *thread) exit(abnormal bool) {
	e := t.exec
	if e.aborted || abnormal {
		e.mu.Lock()
		if !t.exited {
			t.exited = true
			t.exitVT = t.vt
			e.live--
			e.active--
		}
		e.mu.Unlock()
		return
	}
	t.fenceNoResume(func() bool {
		t.exited = true
		t.exitVT = t.vt
		e.live--
		e.active--
		for _, j := range t.joiners {
			e.active++
			e.resumed = append(e.resumed, j)
		}
		t.joiners = nil
		return false
	})
}

// fenceNoResume arrives at the fence with an action that never resumes the
// calling thread (exit).
func (t *thread) fenceNoResume(action func() bool) {
	e := t.exec
	e.mu.Lock()
	if e.aborted {
		e.mu.Unlock()
		return
	}
	ar := &arrival{t: t, runs: t.computeDiff(), vt: t.vt, action: action}
	e.arrivals = append(e.arrivals, ar)
	if len(e.arrivals) == e.active {
		e.serialPhaseLocked(t)
	}
	e.mu.Unlock()
}

//
// api.Thread implementation.
//

func (t *thread) ID() api.ThreadID { return t.id }

// tick advances the logical clock and, in CoreDet mode, ends the quantum.
func (t *thread) tick(n uint64) {
	t.vt += vtime.Time(n) * vtime.MemOp
	if t.exec.quantum == 0 {
		return
	}
	t.qused += n
	if t.qused >= t.exec.quantum {
		// Quantum expired: stop at the global barrier even though no
		// synchronization is needed (Figure 1).
		t.fence(func() bool { return true })
	}
}

func (t *thread) Tick(n uint64) { t.tick(n) }

func (t *thread) Observe(vals ...uint64) { t.obs = append(t.obs, vals...) }

func (t *thread) Load8(a api.Addr) uint8 {
	t.st.Loads++
	t.tick(1)
	return t.space.Load8(uint64(a))
}

func (t *thread) Store8(a api.Addr, v uint8) {
	t.st.Stores++
	t.tick(1)
	t.space.Store8(uint64(a), v)
}

func (t *thread) Load32(a api.Addr) uint32 {
	t.st.Loads++
	t.tick(1)
	return t.space.Load32(uint64(a))
}

func (t *thread) Store32(a api.Addr, v uint32) {
	t.st.Stores++
	t.tick(1)
	t.space.Store32(uint64(a), v)
}

func (t *thread) Load64(a api.Addr) uint64 {
	t.st.Loads++
	t.tick(1)
	return t.space.Load64(uint64(a))
}

func (t *thread) Store64(a api.Addr, v uint64) {
	t.st.Stores++
	t.tick(1)
	t.space.Store64(uint64(a), v)
}

func (t *thread) LoadF64(a api.Addr) float64 { return math.Float64frombits(t.Load64(a)) }

func (t *thread) StoreF64(a api.Addr, v float64) { t.Store64(a, math.Float64bits(v)) }

func (t *thread) ReadBytes(a api.Addr, buf []byte) {
	if len(buf) == 0 {
		return
	}
	t.st.Loads++
	t.tick(uint64(len(buf)))
	t.space.ReadBytes(uint64(a), buf)
}

func (t *thread) WriteBytes(a api.Addr, data []byte) {
	if len(data) == 0 {
		return
	}
	t.st.Stores++
	t.tick(uint64(len(data)))
	t.space.WriteBytes(uint64(a), data)
}

func (t *thread) Malloc(size uint64) api.Addr {
	t.tick(8)
	return api.Addr(t.exec.alloc.Malloc(int(t.id), size))
}

func (t *thread) Free(a api.Addr) {
	t.tick(8)
	if err := t.exec.alloc.Free(uint64(a)); err != nil {
		t.exec.fail(fmt.Errorf("dthreads: thread %d: %v", t.id, err))
		panic(errAborted)
	}
}

func (t *thread) Lock(m api.Addr) {
	t.st.Locks++
	t.vt += vtime.SyncBase
	e := t.exec
	if e.rcdc {
		// RCDC fast path (§3.1): re-acquiring a lock this thread itself
		// last released needs no communication, hence no barrier. The
		// eligibility test reads only fence-committed state (lastOwner
		// changes in serial phases or under this thread's own ownership),
		// so the decision is deterministic.
		e.mu.Lock()
		sv := e.syncvar(m)
		if !sv.held && sv.lastOwner == t.id {
			sv.held = true
			sv.owner = t.id
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
	}
	t.fence(func() bool {
		sv := e.syncvar(m)
		if sv.held {
			sv.lockQ = append(sv.lockQ, t.id)
			e.active--
			return false
		}
		sv.held = true
		sv.owner = t.id
		return true
	})
}

func (t *thread) Unlock(m api.Addr) {
	t.st.Unlocks++
	t.vt += vtime.SyncBase
	e := t.exec
	if e.rcdc {
		// RCDC fast path: releasing with no queued waiter defers the
		// publication of the critical section's writes to the next quantum
		// barrier (store-buffer semantics); a later same-thread re-acquire
		// needs none of that, and a cross-thread acquire fences anyway.
		e.mu.Lock()
		sv := e.syncvar(m)
		if sv.held && sv.owner == t.id && len(sv.lockQ) == 0 {
			sv.held = false
			sv.owner = -1
			sv.lastOwner = t.id
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
	}
	t.fence(func() bool {
		sv := e.syncvar(m)
		if !sv.held || sv.owner != t.id {
			e.failLocked(fmt.Errorf("dthreads: thread %d: unlock of mutex %#x not held by it", t.id, uint64(m)))
			return true
		}
		sv.lastOwner = t.id
		e.grantLocked(sv)
		return true
	})
}

// grantLocked releases the mutex, handing it to the lowest-queued waiter.
func (e *exec) grantLocked(sv *syncVar) {
	if len(sv.lockQ) > 0 {
		next := sv.lockQ[0]
		sv.lockQ = sv.lockQ[1:]
		sv.owner = next
		e.active++
		e.resumed = append(e.resumed, e.threads[next])
		return
	}
	sv.held = false
	sv.owner = -1
}

func (t *thread) Wait(c, m api.Addr) {
	t.st.Waits++
	t.vt += vtime.SyncBase
	e := t.exec
	t.fence(func() bool {
		svm := e.syncvar(m)
		if !svm.held || svm.owner != t.id {
			e.failLocked(fmt.Errorf("dthreads: thread %d: cond wait with mutex %#x not held", t.id, uint64(m)))
			return true
		}
		svm.lastOwner = t.id
		e.grantLocked(svm)
		svc := e.syncvar(c)
		svc.condQ = append(svc.condQ, condEntry{tid: t.id, mutex: m})
		e.active--
		return false
	})
}

func (t *thread) Signal(c api.Addr) { t.signal(c, false) }

func (t *thread) Broadcast(c api.Addr) { t.signal(c, true) }

func (t *thread) signal(c api.Addr, all bool) {
	t.st.Signals++
	t.vt += vtime.SyncBase
	e := t.exec
	t.fence(func() bool {
		svc := e.syncvar(c)
		n := 1
		if all {
			n = len(svc.condQ)
		}
		for i := 0; i < n && len(svc.condQ) > 0; i++ {
			entry := svc.condQ[0]
			svc.condQ = svc.condQ[1:]
			svm := e.syncvar(entry.mutex)
			if svm.held {
				svm.lockQ = append(svm.lockQ, entry.tid)
			} else {
				svm.held = true
				svm.owner = entry.tid
				e.active++
				e.resumed = append(e.resumed, e.threads[entry.tid])
			}
		}
		return true
	})
}

func (t *thread) Barrier(b api.Addr, n int) {
	t.st.Barriers++
	t.vt += vtime.SyncBase
	e := t.exec
	t.fence(func() bool {
		sv := e.syncvar(b)
		sv.barQ = append(sv.barQ, t.id)
		if len(sv.barQ) < n {
			e.active--
			return false
		}
		for _, tid := range sv.barQ {
			if tid == t.id {
				continue
			}
			e.active++
			e.resumed = append(e.resumed, e.threads[tid])
		}
		sv.barQ = nil
		return true
	})
}

// Spawn creates a child thread without a global fence: as with clone() in
// the real system, the child inherits the parent's memory view directly
// (including the parent's not-yet-committed writes, which reach the global
// store at the parent's next fence — and every fence is total, so no thread
// refreshes before that commit). Fencing at pthread_create would serialize
// fork/join map phases behind each spawn, which contradicts DThreads'
// measured near-pthreads performance on the Phoenix benchmarks.
func (t *thread) Spawn(fn api.ThreadFunc) api.ThreadID {
	t.st.Forks++
	t.vt += vtime.SyncBase
	e := t.exec
	e.mu.Lock()
	if e.aborted {
		e.mu.Unlock()
		panic(errAborted)
	}
	if t.attached {
		// First fork: detach from the global store into a private view.
		t.attached = false
		t.isolate(e.global.Clone())
	}
	id := api.ThreadID(len(e.threads))
	child := &thread{
		exec: e,
		id:   id,
		fn:   fn,
		wake: make(chan wakeEvent, 1),
		vt:   t.vt + vtime.ThreadSpawn,
	}
	child.isolate(t.space.Clone())
	e.alloc.Register(int(id))
	e.threads = append(e.threads, child)
	e.live++
	e.active++
	e.wg.Add(1)
	go e.runThread(child)
	e.mu.Unlock()
	return id
}

func (t *thread) Join(id api.ThreadID) {
	t.st.Joins++
	t.vt += vtime.SyncBase
	e := t.exec
	t.fence(func() bool {
		if id < 0 || int(id) >= len(e.threads) || id == t.id {
			e.failLocked(fmt.Errorf("dthreads: thread %d: invalid join of thread %d", t.id, id))
			return true
		}
		target := e.threads[id]
		if target.exited {
			t.vt = vtime.Max(t.vt, target.exitVT)
			return true
		}
		target.joiners = append(target.joiners, t)
		e.active--
		return false
	})
}

func (t *thread) AtomicAdd64(a api.Addr, delta uint64) uint64 {
	t.st.AtomicsOps++
	t.vt += vtime.SyncBase
	e := t.exec
	var out uint64
	t.fence(func() bool {
		out = e.global.Load64(uint64(a)) + delta
		e.global.Store64(uint64(a), out)
		return true
	})
	return out
}

func (t *thread) AtomicCAS64(a api.Addr, old, new uint64) bool {
	t.st.AtomicsOps++
	t.vt += vtime.SyncBase
	e := t.exec
	var ok bool
	t.fence(func() bool {
		if e.global.Load64(uint64(a)) == old {
			e.global.Store64(uint64(a), new)
			ok = true
		}
		return true
	})
	return ok
}
