// Package core implements RFDet, the paper's deterministic multithreading
// runtime based on deterministic lazy release consistency (DLRC).
//
// Each logical thread runs in a private simulated address space (substituting
// for the paper's clone()-separated processes, see internal/mem). The Kendo
// algorithm (internal/kendo) imposes a deterministic total order on
// synchronization operations; execution between synchronization operations is
// cut into slices whose byte-granularity modifications are exchanged
// according to the happens-before relation, tracked with vector clocks
// (§3, §4). No global barriers are ever used: a thread that does not
// synchronize never blocks.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rfdet/internal/alloc"
	"rfdet/internal/api"
	"rfdet/internal/kendo"
	"rfdet/internal/mem"
	"rfdet/internal/racecheck"
	"rfdet/internal/slicestore"
	"rfdet/internal/stats"
	"rfdet/internal/trace"
	"rfdet/internal/vclock"
	"rfdet/internal/vtime"
)

// Monitor selects how memory modifications are detected within a slice
// (§4.2): compile-time-instrumentation style (RFDet-ci) or page-protection
// style (RFDet-pf).
type Monitor int

const (
	// MonitorCI checks a per-slice page set on every store (the paper's
	// compile-time store instrumentation, Figure 4). This is the faster
	// monitor (RFDet-ci).
	MonitorCI Monitor = iota
	// MonitorPF models write-protecting the whole address space at each
	// slice start and snapshotting pages in the protection-fault handler
	// (RFDet-pf, the approach DThreads takes): the sweep is charged per
	// resident page, and the fault at the slice's first store to a page,
	// which the space takes under either monitor. Slower for sync-heavy
	// programs because of the per-slice sweep and fault costs.
	MonitorPF
)

func (m Monitor) String() string {
	if m == MonitorPF {
		return "pf"
	}
	return "ci"
}

// Options configure an RFDet runtime.
type Options struct {
	// Monitor selects the modification monitor (default MonitorCI).
	Monitor Monitor
	// SliceMerging enables the slice-merging optimization (§4.5): an
	// acquire of a variable last released by the same thread does not end
	// the current slice.
	SliceMerging bool
	// Prelock enables the prelock optimization (§4.5): a thread blocked on
	// a held lock pre-propagates updates that must happen-before its
	// eventual acquire, in parallel with the holder's critical section.
	Prelock bool
	// LazyWrites enables the lazy-writes optimization (§4.5): propagated
	// modifications are pended per page and applied on first access.
	LazyWrites bool
	// MetadataCapacity is the metadata-space size in bytes (default 256 MiB
	// as in §5.4). Garbage collection triggers at 90% of it.
	MetadataCapacity uint64
	// Validate enables the post-execution DLRC invariant checker (tests).
	Validate bool
	// Trace records every synchronization operation in deterministic
	// admission order; fetch it with RunTraced.
	Trace bool
	// PhaseTrace records wall-clock phase spans (turn-wait, monitor-wait,
	// diff, plan-build, apply, premerge, lazy-flush, block) into per-thread
	// buffers and attaches them to Report.Phases, with the deterministic
	// sync tracer's events cross-linked as instant marks. Strictly
	// observational: wall-clock data never feeds outputs, virtual times or
	// the deterministic trace, so every deterministic observable is
	// bit-identical with phase tracing on or off.
	PhaseTrace bool
	// RaceDetect enables the happens-before data-race detector
	// (internal/racecheck): per-slice read sets are tracked alongside the
	// modification lists, every committed slice's access footprint is
	// recorded, and Report.Races carries the deduplicated, deterministically
	// ordered conflict report. Strictly observational: detection charges no
	// virtual time and never changes outputs, virtual times or traces, so
	// every deterministic observable is bit-identical with it on or off.
	RaceDetect bool
}

// DefaultOptions returns the configuration used for the paper's headline
// numbers: the CI monitor with every optimization enabled.
func DefaultOptions() Options {
	return Options{
		Monitor:      MonitorCI,
		SliceMerging: true,
		Prelock:      true,
		LazyWrites:   true,
	}
}

// Runtime is an RFDet deterministic multithreading runtime. It satisfies
// api.Runtime; each Run call is an independent deterministic execution.
type Runtime struct {
	opts  Options
	chunk chunking // tickChunk; only TestDeterminismIndependentOfChunk sets anything else

	// spareMu guards spare: the working storage of finished executions'
	// threads, capacity only (keepScratchLocked). An execution takes the
	// whole list when it starts and its threads take from it before they
	// make their own, so a run does not re-grow what the last one grew.
	spareMu sync.Mutex //detvet:nativesync hands spare storage between executions; no ordering role.
	//detvet:guardedby Runtime.spareMu
	spare []*threadScratch
}

// New returns an RFDet runtime with the given options.
func New(opts Options) *Runtime { return &Runtime{opts: opts, chunk: tickChunk} }

// Name returns "rfdet-ci" or "rfdet-pf".
func (r *Runtime) Name() string { return "rfdet-" + r.opts.Monitor.String() }

// Options returns the runtime's configuration.
func (r *Runtime) Options() Options { return r.opts }

// errAborted unwinds thread goroutines when an execution fails.
var errAborted = errors.New("rfdet: execution aborted")

// exec is the state of one program execution: the paper's metadata space
// (synchronization variables, the slice store, the shared allocator) plus
// the thread table and the Kendo arbiter, behind the one commit monitor of
// §4.1 (mu). A thread enters the monitor only after winning the
// deterministic turn, so every access sequence is deterministic.
type exec struct {
	opts  Options
	chunk chunking // when a thread publishes its Kendo clock (thread.tick)
	sched *kendo.Sched
	alloc *alloc.Allocator
	store *slicestore.Store
	// phases is the phase-level observability collector (nil unless
	// Options.PhaseTrace): per-thread wall-clock span buffers, rendered
	// into Report.Phases. Observational only — never part of the
	// deterministic surface.
	phases *trace.Collector
	// races is the happens-before race detector (nil unless
	// Options.RaceDetect): slice access footprints recorded at commit time
	// under the monitor, analyzed into Report.Races after the run. Like
	// phases, purely observational.
	races *racecheck.Detector

	// mu is the commit monitor (§4.1): every synchronization operation's
	// mutation of the fields below, of a syncVar, or of a blocked peer runs
	// under it, between enter and leave. The abort path (fail) and the
	// post-execution report build take it too. A holder never waits on
	// anything but the allocator's leaf lock.
	mu sync.Mutex //detvet:nativesync the commit monitor (§4.1).
	// syncvars is the internal synchronization variable table.
	//detvet:guardedby exec.mu
	syncvars map[api.Addr]*syncVar
	//detvet:guardedby exec.mu
	threads []*thread
	// liveCount and blockedCount feed the deadlock check: every live thread
	// blocked means nobody is left to wake anybody. maxLive is liveCount's
	// high-water mark, for the report.
	//detvet:guardedby exec.mu
	liveCount int
	//detvet:guardedby exec.mu
	blockedCount int
	//detvet:guardedby exec.mu
	maxLive int
	// aborted is set once, by failLocked, with abortErr the first error.
	// kendo.Sched carries its own atomic copy for the turn spinners.
	//detvet:guardedby exec.mu
	aborted bool
	//detvet:guardedby exec.mu
	abortErr error

	// collectErr is the first disagreement between a windowed collection and
	// the whole-list reference scan (Options.Validate only; propagate.go).
	// Recorded rather than raised, so that a Validate run reports it with the
	// other invariants; validateLocked does.
	//detvet:guardedby exec.mu
	collectErr error

	// gcFrontier is the frontier of the last GC pass (gcLocked).
	//detvet:guardedby exec.mu
	gcFrontier vclock.VC
	// spare is the Runtime's spare thread scratch, taken at the start
	// (newScratchLocked pops it).
	//detvet:guardedby exec.mu
	spare []*threadScratch

	wg sync.WaitGroup //detvet:nativesync joins thread goroutines at run end; no ordering role.
	// deferred and ran count the releases Unlock deferred and those run.
	deferred, ran atomic.Uint64
	// drainStopped, nil but in one test, runs in lockTurn when a drain stops
	// short, before the section probes its own key: the window that test
	// forces.
	drainStopped func()
}

// syncVar is an internal synchronization variable (§4.1): the runtime-side
// object backing the application mutex/condvar/barrier at one address. It
// lives in exec.syncvars and is read and written only inside the monitor.
type syncVar struct {
	addr api.Addr
	// Mutex state.
	held  bool
	owner api.ThreadID
	lockQ waitq[api.ThreadID]
	// Release record: who last released the variable and when (§4.1,
	// lastTid/lastTime), plus the release's virtual time. queued, in
	// lastTid's padding, is lockQ's length for deferUnlock to read off the
	// monitor.
	lastTid  int32
	queued   atomic.Int32
	lastTime vclock.VC
	lastVT   vtime.Time
	// Condition-variable wait queue, in deterministic wait order.
	condQ waitq[condEntry]
	// Barrier arrivals for the current generation.
	barArrivals []barArrival
}

// enqueue and dequeue push onto and pop off the mutex's grant queue.
func (sv *syncVar) enqueue(tid api.ThreadID) {
	sv.lockQ.push(tid)
	sv.queued.Store(int32(sv.lockQ.len()))
}

func (sv *syncVar) dequeue() (tid api.ThreadID) {
	tid = sv.lockQ.pop()
	sv.queued.Store(int32(sv.lockQ.len()))
	return tid
}

type condEntry struct {
	tid   api.ThreadID
	mutex api.Addr
}

type barArrival struct {
	tid api.ThreadID
	v   vclock.VC
	vt  vtime.Time
}

// wakeEvent resumes a blocked thread. The waker — which holds both the
// deterministic turn and the monitor, while the sleeper is provably blocked —
// performs the sleeper's entire acquire (clock joins, slice-pointer
// collection) before waking it, so the woken thread re-enters user code
// without touching any monitor-guarded state: it only installs vt, applies
// the pre-collected slices to its private memory, and goes.
type wakeEvent struct {
	abort bool
	// vt is the woken thread's new virtual time, computed by the waker.
	vt vtime.Time
	// slices are the pre-collected propagated slices the woken thread must
	// apply to its private memory before returning to user code.
	slices []*slicestore.Slice
}

// signalRecord carries the release information of a cond signal to the
// waiter it woke (§4.1: propagation at the wakeup's acquire side).
type signalRecord struct {
	tid int32
	v   vclock.VC
	vt  vtime.Time
}

func newExec(opts Options, chunk chunking) *exec {
	e := &exec{
		opts:     opts,
		chunk:    chunk,
		sched:    kendo.NewSched(),
		alloc:    alloc.New(),
		store:    slicestore.NewStore(opts.MetadataCapacity),
		syncvars: make(map[api.Addr]*syncVar),
	}
	if opts.PhaseTrace {
		e.phases = trace.NewCollector()
	}
	if opts.RaceDetect {
		e.races = racecheck.New()
	}
	return e
}

// newExec is a new execution under r's options, holding r's spare scratch.
func (r *Runtime) newExec() *exec {
	e := newExec(r.opts, r.chunk)
	r.spareMu.Lock()
	//detvet:lockcheck no goroutine of e exists yet.
	e.spare, r.spare = r.spare, nil
	r.spareMu.Unlock()
	return e
}

// Run executes main as thread 0 and returns the deterministic report.
func (r *Runtime) Run(main api.ThreadFunc) (*api.Report, error) {
	rep, _, err := r.RunTraced(main)
	return rep, err
}

// RunTraced is Run plus the deterministic synchronization trace (nil unless
// Options.Trace is set). The trace must be byte-identical across runs of
// the same program — the event-level form of the determinism guarantee.
func (r *Runtime) RunTraced(main api.ThreadFunc) (*api.Report, *Trace, error) {
	e := r.newExec()
	t0 := &thread{
		exec: e,
		id:   0,
		fn:   main,
		// The main thread does not monitor modifications until the first
		// child thread is created (§4.1): before that, no other memory
		// space exists to propagate to, and the first child inherits the
		// parent memory through the clone.
		monitoring: false,
		space:      mem.NewSpace(),
		vtime:      vclock.New(1).Set(0, 1),
		wake:       make(chan wakeEvent, 1), //detvet:nativesync 1-buffered wake mailbox; exactly one monitor-ordered waker per sleep.
		//detvet:lockcheck no goroutine of e exists yet.
		scratch: e.newScratchLocked(),
	}
	t0.tb = e.phases.NewThread(0)
	t0.proc = e.sched.Register(0, 0)
	e.alloc.Register(0)
	//detvet:lockcheck no other goroutine exists yet.
	e.threads, e.liveCount, e.maxLive = append(e.threads, t0), 1, 1

	start := stats.Now()
	e.wg.Add(1)
	//detvet:nativesync thread bodies run on goroutines; determinism comes from Kendo turns, not goroutine scheduling.
	go e.runThread(t0)
	e.wg.Wait()
	elapsed := stats.Since(start)

	e.mu.Lock()
	defer e.mu.Unlock()
	r.keepScratchLocked(e)
	if e.abortErr != nil {
		return nil, nil, e.abortErr
	}
	if r.opts.Validate {
		if err := e.validateLocked(); err != nil {
			return nil, nil, err
		}
	}
	var tr *Trace
	if r.opts.Trace {
		tr = e.renderTraceLocked()
	}
	return e.buildReportLocked(elapsed), tr, nil
}

// newScratchLocked is a new thread's scratch: a finished execution's, if the
// Runtime kept one, else a new one.
//
//detvet:holds exec.mu
func (e *exec) newScratchLocked() *threadScratch {
	n := len(e.spare)
	if n == 0 {
		return new(threadScratch)
	}
	sc := e.spare[n-1]
	e.spare = e.spare[:n-1]
	return sc
}

// keepScratchLocked hands the scratch of e's threads, whose goroutines have
// all returned, to r for the next execution. It keeps capacity only: an
// aborted run can leave a deferred release published, a block site or a
// tally, and a page's extents alias a page record the space's pool owns.
// With poison-on-recycle on, the staging area and the run lists are
// overwritten, so an execution that read them before writing them shows.
//
//detvet:holds exec.mu
func (r *Runtime) keepScratchLocked(e *exec) {
	spare := e.spare
	for _, t := range e.threads {
		sc := t.scratch
		for i := range sc.pages {
			mem.PoisonRuns(sc.pages[i].runs)
			sc.pages[i] = pageCut{runs: sc.pages[i].runs[:0]}
		}
		mem.PoisonScratch(sc.stage)
		*sc = threadScratch{pages: sc.pages, stage: sc.stage[:0], picked: sc.picked[:0], flushOrder: sc.flushOrder[:0]}
		spare = append(spare, sc)
	}
	e.spare = nil
	r.spareMu.Lock()
	r.spare = append(r.spare, spare...)
	r.spareMu.Unlock()
}

// enter takes the commit monitor for a synchronization operation of thread
// t, which holds the deterministic turn. It counts the entry and records the
// wait as a monitor-wait phase span, one per entry, so the span count
// reconciles with Stats.MonitorAcquires. If the execution has aborted, the
// thread unwinds here instead of entering.
//
// That check is what makes an abort unable to strand a thread entering a
// block. failLocked runs under mu and probes every thread whose status is
// Blocked; a blocker flips itself to Blocked (blockLocked) inside the same mu
// section whose entry made this check — an operation enters once and holds the
// monitor until it is done. So an abort either precedes the section — the
// thread unwinds here — or follows it, and finds the thread Blocked and probes
// it.
//
//detvet:acquires mu
func (e *exec) enter(t *thread) {
	e.enterUnchecked(t)
	if e.aborted {
		e.leave(t)
		panic(errAborted)
	}
}

// enterUnchecked is enter without the abort check, for threadExit alone: an
// exiting thread must run its teardown under the monitor abort or no abort.
//
//detvet:acquires mu
func (e *exec) enterUnchecked(t *thread) {
	e.lockTurn(t)
	t.inMonitor = true
	t.st.MonitorAcquires++
}

// lockTurn takes mu for a thread that has won the turn, running the deferred
// releases below its key first. If one woke a thread below that key, the
// caller gives mu back and waits for the turn again, uncounted. A drain can
// stop at a release whose key a thread woken below it still precedes, and
// that thread can tick past t's key before t probes it: t then holds the
// turn, and so does every key below its own, so it drains again as the turn
// holder before it enters. The monitor-wait span is the first wait for mu; if
// a release ran, a drain span follows it, the forced wait included.
//
//detvet:acquires mu
func (e *exec) lockTurn(t *thread) {
	ts := t.tb.Now()
	e.mu.Lock()
	t.tb.Span(trace.PhaseMonitorWait, ts)
	ts, ran := t.tb.Now(), e.ran.Load()
	for !e.aborted && !e.drainLocked(t) {
		if e.drainStopped != nil {
			e.drainStopped()
		}
		if e.sched.ProbeAt(t.proc.Clock(), int32(t.id)) {
			// Nobody else becomes Running while mu is held: t keeps the turn
			// until a release it runs wakes a thread.
			t.ranSeen = e.ran.Load()
			continue
		}
		e.mu.Unlock()
		t.ranSeen = e.ran.Load()
		e.sched.WaitForTurn(t.proc)
		e.mu.Lock()
	}
	if e.ran.Load() != ran {
		t.tb.Span(trace.PhaseDrain, ts)
	}
}

// drain runs the deferred releases whose keys hold the turn, in a section of
// t's own that is all one drain span; holder is t if t holds the turn, else
// nil (drainLocked).
func (e *exec) drain(t, holder *thread) {
	ts := t.tb.Now()
	e.mu.Lock()
	t.inMonitor = true
	e.drainLocked(holder)
	e.leave(t)
	t.tb.Span(trace.PhaseDrain, ts)
}

// drainLocked runs pending deferred releases in (clock, tid) order while the
// next one's key holds the turn. A turn holder t that no release has run past
// since it began to wait holds the turn at every key below its own until a
// release wakes a thread: then no key is probed, and held reports the turn.
//
//detvet:holds exec.mu
func (e *exec) drainLocked(t *thread) (held bool) {
	held = t != nil && e.ran.Load() == t.ranSeen
	for !e.aborted && e.ran.Load() != e.deferred.Load() {
		next, key := t, uint64(0)
		if held && e.deferred.Load()-e.ran.Load() == 1 {
			key = t.scratch.rel.key.Load() // if t's is pending, it is the one
		}
		if key == 0 {
			next = nil
			for _, r := range e.threads {
				if k := r.scratch.rel.key.Load(); k != 0 && (next == nil || k < key) {
					next, key = r, k
				}
			}
		}
		if next == nil {
			break // deferred, its key not yet stored: above every turn holder's
		}
		if held {
			if c := t.proc.Clock(); key > c || key == c && next.id > t.id {
				break
			}
		} else if !e.sched.ProbeAt(key, int32(next.id)) {
			break
		}
		blocked := e.blockedCount
		next.runReleaseLocked()
		held = held && e.blockedCount == blocked
	}
	return held
}

// leave gives the monitor up.
//
//detvet:releases mu
func (e *exec) leave(t *thread) {
	t.inMonitor = false
	e.mu.Unlock()
}

// runThread is the goroutine body hosting one logical thread.
func (e *exec) runThread(t *thread) {
	defer e.wg.Done()
	defer func() {
		r := recover()
		var err error
		if r != nil && r != errAborted { //nolint:errorlint // sentinel identity
			err = fmt.Errorf("rfdet: thread %d panicked: %v", t.id, r)
		}
		//detvet:lockcheck a panic unwound out of a monitor section: inMonitor says this goroutine still holds mu, which the lattice cannot follow through recover.
		if t.inMonitor {
			if err != nil {
				e.failLocked(err)
			}
			e.exitLocked(t)
			e.leave(t)
			return
		}
		if err != nil {
			e.fail(err)
		}
		e.threadExit(t, r != nil)
	}()
	t.tb.Begin()
	t.beginSlice()
	t.fn(t)
}

// threadExit performs the thread's final release: it ends the last slice,
// records the exit timestamp and wakes joiners (§4.1, thread exit).
func (e *exec) threadExit(t *thread, abnormal bool) {
	if !abnormal && !e.sched.Aborted() {
		// Exit is a synchronization (release) operation: take the turn so
		// the exit point is deterministic. An abort meanwhile is settled
		// under the monitor, where exitLocked sees it.
		t.waitTurn()
	}
	e.enterUnchecked(t)
	e.exitLocked(t)
	e.leave(t)
}

// exitLocked is threadExit's monitor section.
//
//detvet:holds exec.mu
func (e *exec) exitLocked(t *thread) {
	if !e.aborted {
		// Only thread 0's memory is read after its exit (buildReportLocked
		// hashes it; a joiner collects slices, never memory).
		t.flushAllPending(t.id == 0)
		t.exitV = t.endSliceLocked()
	} else {
		t.exitV = t.vtime.Clone()
	}
	t.exitVT = t.vt
	e.liveCount--
	for _, j := range t.joiners {
		if e.aborted {
			// failLocked has already delivered an abort wakeup to every
			// blocked thread, these joiners included, so they are unwinding:
			// a normal wakeLocked here would hand one a stale non-abort
			// event and corrupt the blocked accounting. Probe an abort event
			// instead; it is dropped unless failLocked's was missed.
			j.post(wakeEvent{abort: true})
			continue
		}
		// Perform the joiner's acquire of this exit release on its behalf
		// (it is provably blocked): join its clocks and collect the slices
		// it must apply once awake. The acquire advances j.vt, so the
		// event's virtual time is read after it.
		slices := j.acquireFromCollectLocked(int32(t.id), t.exitV, t.exitVT)
		e.wakeLocked(j, wakeEvent{vt: j.vt, slices: slices})
	}
	t.joiners = nil
	// The Exited flip must come AFTER the joiner wakeups: it is this
	// thread's turn release. Flipping first opens a window in which the
	// exiting thread is gone from the eligibility scan while its joiner is
	// still Blocked, letting an unrelated thread with a larger clock than
	// the about-to-wake joiner pass WaitForTurn and slip its operation in —
	// host timing deciding the admitted order. Exiting last mirrors the
	// other wake paths, where the waker stays Running with the minimum
	// clock until every transition has landed (scans meanwhile see at most
	// a superset of eligible threads, which can only delay an admission,
	// never reorder one).
	e.sched.Transition(func() { t.proc.SetStatus(kendo.Exited) })
	t.tb.Finish()
	if !e.aborted && e.liveCount > 0 && e.blockedCount == e.liveCount {
		e.failLocked(fmt.Errorf("rfdet: deterministic deadlock: all %d live threads blocked", e.liveCount))
	}
}

// fail aborts the execution with err (first error wins) from outside the
// monitor: the pre-turn misuse checks and a panic in application code. A
// caller already inside the monitor uses failLocked.
func (e *exec) fail(err error) {
	e.mu.Lock()
	e.failLocked(err)
	e.mu.Unlock()
}

// failLocked aborts under the monitor: it records the error, aborts the
// Kendo arbiter so spinners unwind, and probes every blocked thread's mailbox
// with an abort event. Threads that are not blocked unwind at their next
// turn or at enter.
//
//detvet:holds exec.mu
func (e *exec) failLocked(err error) {
	if e.aborted {
		return
	}
	e.aborted = true
	e.abortErr = err
	e.sched.Abort()
	for _, t := range e.threads {
		if t.proc.Status() == kendo.Blocked {
			t.post(wakeEvent{abort: true})
		}
	}
}

// wakeLocked resumes a blocked thread with the given event. The
// Blocked→Running flip is bracketed as a scheduling transition so no
// concurrent turn scan can observe the waker's clock tick without also
// observing the newly eligible thread.
//
//detvet:holds exec.mu
func (e *exec) wakeLocked(t *thread, ev wakeEvent) {
	e.sched.Transition(func() { t.proc.SetStatus(kendo.Running) })
	e.blockedCount--
	// Each sleep has exactly one monitor-ordered waker, and no section wakes
	// anybody after failLocked has run, so the mailbox is empty here; were an
	// abort probe ever in it, the sleeper would unwind on that and this event
	// would be moot.
	t.post(ev)
}

// post puts ev in the thread's 1-buffered wake mailbox without blocking, so
// that the monitor is never held across a send that could park. A full
// mailbox drops ev: it already holds an abort probe, which wins.
func (t *thread) post(ev wakeEvent) {
	//detvet:nativesync wake mailbox; the wake's order was fixed under the monitor, and an abort abandons determinism by design.
	select {
	case t.wake <- ev:
	default:
	}
}

// blockSite is where a thread is blocked: a format and its operands, put
// together only by the two readers — a deadlock report and the traced block
// span — rather than on every contended lock, wait, barrier and join.
type blockSite struct {
	format string
	ops    [3]uint64
	n      int
}

func (s *blockSite) String() string {
	args := make([]any, s.n)
	for i := range args {
		args[i] = s.ops[i]
	}
	return fmt.Sprintf(s.format, args...)
}

// blockLocked marks the calling thread blocked (recording the block site for
// deadlock diagnostics) and checks for deadlock. The caller holds the
// monitor, which is what makes the thread "provably blocked" to its wakers.
//
//detvet:holds exec.mu
func (t *thread) blockLocked(format string, ops ...uint64) {
	e := t.exec
	site := &t.scratch.site
	site.format, site.n = format, copy(site.ops[:], ops)
	// Captured before the status flips to Blocked: any span another thread
	// records on this thread's behalf (premerge, barrier merge) requires
	// Blocked status, so it provably starts after blockStart and nests inside
	// the block span sleep() closes.
	t.blockStart = t.tb.Now()
	e.sched.Transition(func() { t.proc.SetStatus(kendo.Blocked) })
	e.blockedCount++
	if e.blockedCount == e.liveCount {
		e.failLocked(fmt.Errorf("rfdet: deterministic deadlock: all %d live threads blocked: %s", e.blockedCount, e.blockSites()))
	}
}

// blockSites describes where each blocked thread is stuck; the sites it reads
// were published before each thread's status flipped to Blocked.
//
//detvet:holds exec.mu
func (e *exec) blockSites() string {
	s := ""
	for _, t := range e.threads {
		if t.proc.Status() == kendo.Blocked {
			if s != "" {
				s += ", "
			}
			s += fmt.Sprintf("thread %d: %s", t.id, &t.scratch.site)
		}
	}
	return s
}

// sleep parks the thread until a wake event arrives. A grant queue's head
// whose mutex's release is deferred (watch, set by Lock) first polls the
// release's key, still Blocked, and runs it when the key holds the turn.
func (t *thread) sleep() wakeEvent {
	if from := t.watch; from != nil {
		t.watch = nil
		e := t.exec
		// Until the handoff or an abort fills the mailbox, from's record is it.
		for spins := 0; len(t.wake) == 0; spins++ {
			if k := from.scratch.rel.key.Load(); k != 0 && e.sched.ProbeAt(k, int32(from.id)) {
				e.drain(t, nil)
			}
			kendo.Pause(spins)
		}
	}
	//detvet:nativesync the only blocking receive: parks until the monitor-ordered wake event.
	ev := <-t.wake
	if t.tb != nil {
		t.tb.SpanDetail(trace.PhaseBlock, t.blockStart, t.scratch.site.String())
	}
	if ev.abort {
		panic(errAborted)
	}
	return ev
}

// buildReportLocked assembles the execution report.
//
//detvet:holds exec.mu
func (e *exec) buildReportLocked(elapsed time.Duration) *api.Report {
	rep := api.NewReport(e.threads, func(t *thread) api.ThreadShare {
		return api.ThreadShare{ID: t.id, Obs: t.obs, Stats: &t.st, ExitVT: uint64(t.exitVT)}
	}, e.threads[0].space.Hash(), e.alloc.HighWater(), elapsed)
	rep.Stats.MetadataBytes = e.store.HighWater()
	rep.Stats.MetadataCapacity = e.store.Capacity()
	rep.Stats.GCCount = e.store.GCCount()
	rep.Stats.GCEmptyPasses = e.store.EmptyGCCount()
	rep.Stats.RuntimeMemBytes = uint64(e.maxLive)*e.alloc.HighWater() + e.store.HighWater()
	// Attached after the hash: phase spans are wall-clock observability and
	// the race report, while itself deterministic, must never influence the
	// deterministic output.
	rep.Phases = e.phases.Render()
	rep.Races = e.races.Analyze()
	return rep
}

// gcLocked garbage-collects slices that every live thread has merged
// (§4.5): the frontier is the meet of all live threads' vector clocks. The
// committing thread is live, so there is at least one clock.
//
// A pass runs only when the frontier has moved since the last one. The
// frontier never falls: spawn, exit, join and barrier never lower it. A pass
// at a frontier ≤ the last one would free nothing: the last pass freed every
// slice at or below it, and a slice committed since carries its creator's
// component above that thread's component in the last frontier. So the skip
// leaves the store exactly as the pass would, and GCEmptyPasses counts only
// passes at a new frontier.
//
// The caller is inside the monitor and holds the deterministic turn, so every
// clock and every list the pass reads and trims is quiescent.
//
//detvet:holds exec.mu
func (e *exec) gcLocked() {
	var clocks []vclock.VC
	for _, t := range e.threads {
		if t.proc.Status() != kendo.Exited {
			clocks = append(clocks, t.vtime)
		}
	}
	frontier := vclock.MeetAll(clocks)
	if e.gcFrontier != nil && frontier.Leq(e.gcFrontier) {
		return
	}
	e.gcFrontier = frontier
	if e.store.Collect(frontier) == 0 {
		// Every list holds only slices the store still holds (a slice is
		// committed as it is first listed, and each pass that frees trims
		// every list by the same frontier), so with nothing freed every trim
		// would be the identity and every collection window stays valid.
		return
	}
	for _, t := range e.threads {
		// The trim shifts every surviving slice's position.
		t.slicePtrs = slicestore.TrimList(t.slicePtrs, frontier)
		t.forgetMarks()
	}
}
