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
	"hash/fnv"
	"runtime"
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
	// MonitorPF write-protects the whole address space at each slice start
	// and snapshots pages in the protection-fault handler (RFDet-pf, the
	// approach DThreads takes). Slower for sync-heavy programs because of
	// the per-slice mprotect sweep and fault costs.
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
	// ShardCount is the number of commit-monitor domains the synchronization
	// state is sharded into (see internal/core/shard.go). Sync vars map to
	// domains by address range; hot operations lock only their domain(s),
	// while lifecycle, barriers and GC take a global rendezvous. 0 selects
	// the default (4); 1 reproduces the seed's single global monitor. Every
	// deterministic observable — outputs, virtual times, traces, race
	// reports — is bit-identical across shard counts: the deterministic turn
	// already orders all monitor-state mutation, so sharding only changes
	// which mutex a domain's residual windows contend on.
	ShardCount int
	// MetadataCapacity is the metadata-space size in bytes
	// (default 256 MiB as in §5.4).
	MetadataCapacity uint64
	// GCThresholdPct triggers slice garbage collection at this metadata
	// usage percentage (default 90 as in §5.4).
	GCThresholdPct int
	// EpochStore selects the log-structured epoch implementation of the
	// metadata space (slicestore.EpochStore): commits append into per-stripe
	// arena-backed segments whose run payloads are interned and recycled,
	// and garbage collection drops whole segments against the vclock
	// frontier. Off — the DefaultOptions value — selects the map store
	// (slicestore.MapStore), which keeps the committer's run payloads as
	// they are and sweeps a map under a mutex; it allocates 6–32% fewer KiB
	// per run on every benchmark workload and is no slower (DESIGN.md §16).
	// Results are identical either way — the store only changes how payload
	// memory is owned and reclaimed, never which bytes a reader sees — so
	// outputs, virtual times, traces and race reports are bit-identical
	// across this option (TestFuzzEpochStoreAgrees,
	// TestSeedRegressionEpochStoreMatches). The epoch store is pending
	// deletion (ROADMAP item 3).
	EpochStore bool
	// NoCommHint implements the eager-collection extension sketched at the
	// end of §5.4: it names threads that the programmer asserts never
	// communicate through shared memory after their creation (pure fork/
	// join workers, e.g. linear_regression's mappers). Hinted threads skip
	// slice creation entirely except for their final exit slice (which the
	// join still needs), bounding the metadata growth that §5.4 identifies
	// as RFDet's pathological case. If the assertion is wrong — a hinted
	// thread's updates are acquired before its exit — the acquirer misses
	// them, exactly the caveat the paper attaches to the idea; the result
	// is still deterministic.
	NoCommHint func(tid int32) bool
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
		ShardCount:   4,
	}
}

// Runtime is an RFDet deterministic multithreading runtime. It satisfies
// api.Runtime; each Run call is an independent deterministic execution.
type Runtime struct {
	opts Options
}

// New returns an RFDet runtime with the given options.
func New(opts Options) *Runtime { return &Runtime{opts: opts} }

// Name returns "rfdet-ci" or "rfdet-pf".
func (r *Runtime) Name() string { return "rfdet-" + r.opts.Monitor.String() }

// Options returns the runtime's configuration.
func (r *Runtime) Options() Options { return r.opts }

// errAborted unwinds thread goroutines when an execution fails.
var errAborted = errors.New("rfdet: execution aborted")

// exec is the state of one program execution: the paper's metadata space
// (synchronization variables, the slice store, the shared allocator) plus
// the thread table and the Kendo arbiter. The synchronization-variable
// state lives in the sharded commit-monitor domains (exec.shards, see
// shard.go); a thread mutates a domain only while holding its mutex, which
// it takes only after winning the deterministic turn, so every access
// sequence is deterministic.
type exec struct {
	opts   Options
	sched  *kendo.Sched
	alloc  *alloc.Allocator
	store  slicestore.Store
	tracer *tracer
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

	// shards are the per-address-range commit-monitor domains. Hot sync
	// ops lock only the domain(s) owning their variables; the global
	// rendezvous (shard.go) locks them all plus mu.
	shards []*monShard

	// mu is the global half of the monitor: lifecycle and barrier
	// rendezvous, GC passes, the abort path, and the thread table. It is
	// the maximum element of the lock order — taken after any domain
	// mutexes, and a holder never waits on anything else.
	//detvet:lockorder 20
	mu sync.Mutex //detvet:nativesync the global monitor rendezvous (§4.1 sharded); ordered after the domain mutexes.
	//detvet:notguarded appended only under the full rendezvous; readers either hold the turn or run after the workers exited, both of which the rendezvous mutually excludes
	threads []*thread
	//detvet:notguarded written only under the spawn rendezvous, read only by the post-execution report build
	maxLive int

	// liveCount and blockedCount are atomics because the deadlock check on
	// a hot-path block holds only that path's domain, not mu.
	liveCount    atomic.Int64
	blockedCount atomic.Int64
	// aborted is atomic for the same reason: hot paths consult it at
	// relock time while holding only their domain.
	aborted  atomic.Bool
	abortErr error

	// collectErr is the first disagreement between a windowed collection and
	// the whole-list reference scan (Options.Validate only; propagate.go).
	// Recorded rather than raised, because it is found inside a domain
	// section; validateLocked reports it.
	//detvet:notguarded written only by collectLocked, turn-held; read by validateLocked after every worker has exited
	collectErr error

	// diffSem bounds the worker pool that byte-diffs snapshotted pages
	// concurrently during off-monitor slice finishing. One token per worker;
	// a diff that cannot get a token runs inline on the owning thread.
	diffSem chan struct{}

	wg sync.WaitGroup //detvet:nativesync joins thread goroutines at run end; no ordering role.
}

// syncVar is an internal synchronization variable (§4.1): the runtime-side
// object backing the application mutex/condvar/barrier at one address. It
// lives in, and is guarded by, the commit-monitor domain owning its address
// (shardFor).
type syncVar struct {
	// Mutex state.
	held  bool
	owner api.ThreadID
	lockQ waitq[api.ThreadID]
	// Release record: who last released the variable and when (§4.1,
	// lastTid/lastTime), plus the release's virtual time and the owning
	// domain's version counter at the release (Louvre-style stamp; the
	// domain frontier covers lastTime at every version ≥ lastVer, checked
	// by Options.Validate).
	lastTid  int32
	lastTime vclock.VC
	lastVT   vtime.Time
	lastVer  uint64
	// Condition-variable wait queue, in deterministic wait order.
	condQ waitq[condEntry]
	// Barrier arrivals for the current generation.
	barArrivals []barArrival
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
	// pin holds the store's reclamation epoch open while the woken thread
	// applies the slices: the waker takes it under the same turn that
	// collected them, so an intervening GC pass cannot recycle their
	// payload memory before the off-monitor apply reads it. The sleeper
	// releases it after applying (the zero pin is a no-op, covering wakes
	// that carry no slices; an abort wake leaks it harmlessly — the
	// execution is unwinding).
	pin slicestore.Pin
}

// pinFor takes a store pin covering a deferred application of the given
// collected slices. It must be called while the collector still holds the
// deterministic turn (Collect passes only run under a turn, so the pin is
// ordered before any pass that could reclaim the slices). No pin is needed
// for an empty collection.
func (e *exec) pinFor(slices []*slicestore.Slice) slicestore.Pin {
	if len(slices) == 0 {
		return slicestore.Pin{}
	}
	return e.store.Pin()
}

// signalRecord carries the release information of a cond signal to the
// waiter it woke (§4.1: propagation at the wakeup's acquire side).
type signalRecord struct {
	tid int32
	v   vclock.VC
	vt  vtime.Time
}

func newExec(opts Options) *exec {
	if opts.MetadataCapacity == 0 {
		opts.MetadataCapacity = slicestore.DefaultCapacity
	}
	if opts.ShardCount == 0 {
		opts.ShardCount = DefaultOptions().ShardCount
	}
	if opts.ShardCount < 1 {
		opts.ShardCount = 1
	}
	if opts.ShardCount > maxShards {
		opts.ShardCount = maxShards
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	e := &exec{
		opts:    opts,
		sched:   kendo.NewSched(),
		alloc:   alloc.New(),
		diffSem: make(chan struct{}, workers), //detvet:nativesync semaphore bounding the diff worker pool; tokens carry no data.
	}
	if opts.EpochStore {
		e.store = slicestore.NewEpochStore(opts.MetadataCapacity, opts.GCThresholdPct, opts.ShardCount)
	} else {
		e.store = slicestore.NewStriped(opts.MetadataCapacity, opts.GCThresholdPct, opts.ShardCount)
	}
	for i := 0; i < opts.ShardCount; i++ {
		e.shards = append(e.shards, &monShard{id: i, syncvars: make(map[api.Addr]*syncVar)})
	}
	if opts.PhaseTrace {
		e.phases = trace.NewCollector()
	}
	if opts.RaceDetect {
		e.races = racecheck.New()
	}
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
	e := newExec(r.opts)
	if r.opts.Trace {
		e.tracer = &tracer{}
	}
	t0 := &thread{
		exec:      e,
		id:        0,
		fn:        main,
		lastShard: -1,
		// The main thread does not monitor modifications until the first
		// child thread is created (§4.1): before that, no other memory
		// space exists to propagate to, and the first child inherits the
		// parent memory through the clone.
		monitoring: false,
		space:      mem.NewSpace(),
		vtime:      vclock.New(1).Set(0, 1),
		wake:       make(chan wakeEvent, 1), //detvet:nativesync 1-buffered wake mailbox; exactly one monitor-ordered waker per sleep.
		scratch:    new(threadScratch),
	}
	t0.space.SetFaultHandler(t0.onFault)
	t0.tb = e.phases.NewThread(0)
	t0.proc = e.sched.Register(0, 0)
	e.alloc.Register(0)
	e.threads = append(e.threads, t0)
	e.liveCount.Store(1)
	e.maxLive = 1

	start := stats.Now()
	e.wg.Add(1)
	//detvet:nativesync thread bodies run on goroutines; determinism comes from Kendo turns, not goroutine scheduling.
	go e.runThread(t0)
	e.wg.Wait()
	elapsed := stats.Since(start)

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.abortErr != nil {
		return nil, nil, e.abortErr
	}
	if r.opts.Validate {
		if err := e.validateLocked(); err != nil {
			return nil, nil, err
		}
	}
	var tr *Trace
	if e.tracer != nil {
		tr = e.tracer.render()
	}
	return e.buildReportLocked(elapsed), tr, nil
}

// runThread is the goroutine body hosting one logical thread.
func (e *exec) runThread(t *thread) {
	defer e.wg.Done()
	defer func() {
		r := recover()
		if r != nil && r != errAborted { //nolint:errorlint // sentinel identity
			e.fail(fmt.Errorf("rfdet: thread %d panicked: %v", t.id, r))
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
		// the exit point is deterministic.
		ts := t.tb.Now()
		if ok, waited := e.sched.WaitForTurn(t.proc); ok {
			if waited {
				t.st.TurnWaits++
				t.tb.Span(trace.PhaseTurnWait, ts)
			}
		}
	}
	e.rendezvous(t)
	defer e.releaseRendezvous(t)
	if !e.aborted.Load() {
		t.flushAllPending()
		t.exitV = t.endSliceLocked()
	} else {
		t.exitV = t.vtime.Clone()
	}
	t.exitVT = t.vt
	e.liveCount.Add(-1)
	for _, j := range t.joiners {
		if e.aborted.Load() {
			// failLocked has already delivered an abort wakeup to every
			// blocked thread, including these joiners, so their mailboxes
			// may be full and they may already be unwinding. A normal
			// wakeLocked here would block on the full mailbox (or worse,
			// hand an unwinding joiner a stale non-abort event and corrupt
			// the blocked accounting). Probe an abort event instead, for
			// any joiner whose mailbox the fail probe missed because it
			// blocked after the abort landed.
			//detvet:nativesync non-blocking abort probe; abort abandons determinism guarantees by design.
			select {
			case j.wake <- wakeEvent{abort: true}:
			default:
			}
			continue
		}
		// Perform the joiner's acquire of this exit release on its behalf
		// (it is provably blocked): join its clocks and collect the slices
		// it must apply once awake. The acquire advances j.vt, so the
		// event's virtual time is read after it.
		slices := j.acquireFromCollectLocked(int32(t.id), t.exitV, t.exitVT)
		e.wakeLocked(j, wakeEvent{vt: j.vt, slices: slices, pin: e.pinFor(slices)})
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
	if live := e.liveCount.Load(); !e.aborted.Load() && live > 0 && e.blockedCount.Load() == live {
		e.failLocked(fmt.Errorf("rfdet: deterministic deadlock: all %d live threads blocked", live))
	}
}

// syncEvent records a synchronization operation on both observability
// surfaces: the deterministic tracer (Options.Trace, byte-identical across
// runs) and, cross-linked into the phase timeline, a wall-clock instant
// mark (Options.PhaseTrace). Both sides no-op when their option is off.
func (e *exec) syncEvent(t *thread, op string, addr api.Addr) {
	e.tracer.record(t, op, addr)
	t.tb.Mark(op, uint64(addr))
}

// fail aborts the execution with err (first error wins). It takes only
// exec.mu — never the domain mutexes, because fail is reached from inside
// domain sections (misuse errors, the deadlock check), and the lock order
// puts mu after the domains.
func (e *exec) fail(err error) {
	e.mu.Lock()
	e.failLocked(err)
	e.mu.Unlock()
}

// failLocked aborts under exec.mu: it records the error, aborts the Kendo
// arbiter so spinners unwind, and probes every blocked thread's mailbox
// with an abort event.
func (e *exec) failLocked(err error) {
	if e.aborted.Load() {
		return
	}
	e.aborted.Store(true)
	e.abortErr = err
	e.sched.Abort()
	for _, t := range e.threads {
		if t.proc.Status() == kendo.Blocked {
			//detvet:nativesync non-blocking abort probe; abort abandons determinism guarantees by design.
			select {
			case t.wake <- wakeEvent{abort: true}:
			default:
			}
		}
	}
}

// wakeLocked resumes a blocked thread with the given event. The
// Blocked→Running flip is bracketed as a scheduling transition so no
// concurrent turn scan can observe the waker's clock tick without also
// observing the newly eligible thread.
func (e *exec) wakeLocked(t *thread, ev wakeEvent) {
	e.sched.Transition(func() { t.proc.SetStatus(kendo.Running) })
	e.blockedCount.Add(-1)
	// Non-blocking by necessity: the abort path holds only exec.mu, so
	// failLocked can deliver an abort probe into this mailbox while the
	// waker is inside a domain section. Each sleep has exactly one
	// monitor-ordered waker, so the only way the 1-buffered mailbox is
	// full is such an abort probe — in which case the sleeper unwinds on
	// it and this event is moot.
	//detvet:nativesync wake handoff; the Transition above fixed the admission order, and a full mailbox means an abort probe won.
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
// deadlock diagnostics) and checks for deadlock. The caller holds its
// operation's domain(s) — or the rendezvous — which is what makes the
// thread "provably blocked" to wakers in the same domain.
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
	if b := e.blockedCount.Add(1); b == e.liveCount.Load() {
		err := fmt.Errorf("rfdet: deterministic deadlock: all %d live threads blocked: %s", b, e.blockSites())
		if t.holdsGlobal {
			e.failLocked(err)
		} else {
			e.fail(err)
		}
	}
}

// blockSites describes where each blocked thread is stuck. The caller
// holds at least one domain mutex (or the rendezvous), which excludes the
// Spawn rendezvous and so pins e.threads; the sites it reads were published
// before each thread's status flipped to Blocked.
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

// sleep parks the thread until a wake event arrives.
func (t *thread) sleep() wakeEvent {
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
func (e *exec) buildReportLocked(elapsed time.Duration) *api.Report {
	rep := &api.Report{
		Observations: make(map[api.ThreadID][]uint64, len(e.threads)),
		Elapsed:      elapsed,
		Threads:      len(e.threads),
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, t := range e.threads {
		rep.Stats.Add(&t.st)
		rep.Observations[t.id] = t.obs
		put(uint64(t.id))
		put(uint64(len(t.obs)))
		for _, v := range t.obs {
			put(v)
		}
		if t.exitVT > vtime.Time(rep.VirtualTime) {
			rep.VirtualTime = uint64(t.exitVT)
		}
	}
	put(e.threads[0].space.Hash())
	rep.OutputHash = h.Sum64()

	rep.Stats.MonitorShards = uint64(len(e.shards))
	//detvet:lockcheck report build runs after every worker has exited; the domains are quiescent and nothing mutates their counters.
	for _, sh := range e.shards {
		rep.Stats.ShardReleases += sh.releases
		rep.Stats.CrossShardAcquires += sh.crossAcquires
	}
	rep.Stats.SharedMemBytes = e.alloc.HighWater()
	rep.Stats.MetadataBytes = e.store.HighWater()
	rep.Stats.MetadataCapacity = e.store.Capacity()
	rep.Stats.GCCount = e.store.GCCount()
	rep.Stats.GCEmptyPasses = e.store.EmptyGCCount()
	m := e.store.Metrics()
	rep.Stats.StoreSegments = m.SegmentsLive
	rep.Stats.StoreSegmentsDropped = m.SegmentsDropped
	rep.Stats.ArenaChunksAllocated = m.ArenaChunksAllocated
	rep.Stats.ArenaChunksReused = m.ArenaChunksReused
	rep.Stats.ArenaBytesInterned = m.ArenaBytesInterned
	rep.Stats.RuntimeMemBytes = uint64(e.maxLive)*e.alloc.HighWater() + e.store.HighWater()
	// Attached after the hash: phase spans are wall-clock observability and
	// the race report, while itself deterministic, must never influence the
	// deterministic output.
	rep.Phases = e.phases.Render()
	rep.Races = e.races.Analyze()
	return rep
}

// gcLocked garbage-collects slices that every live thread has merged
// (§4.5): the frontier is the meet of all live threads' vector clocks.
//
// Threads hinted as never-communicating (Options.NoCommHint, the §5.4
// eager-collection extension) are excluded from the frontier: since they
// never acquire, their stale clocks must not pin other threads' slices in
// the metadata space.
func (e *exec) gcLocked() {
	var clocks []vclock.VC
	for _, t := range e.threads {
		if t.proc.Status() != kendo.Exited && !t.noComm {
			clocks = append(clocks, t.vtime)
		}
	}
	if len(clocks) == 0 {
		// Every live thread is hinted never-communicating: MeetAll over the
		// empty set would be the beginning-of-time clock, Collect would free
		// nothing, and metadata would grow without bound — the exact §5.4
		// pathology the hint exists to prevent. Fall back to the exit clocks
		// of the threads that have finished: everything that happened-before
		// every exit has been merged by every thread that will ever acquire
		// (hinted threads assert they never will; if that assertion is wrong
		// the acquirer misses the updates, the hint's documented caveat).
		for _, t := range e.threads {
			if t.proc.Status() == kendo.Exited && t.exitV != nil {
				clocks = append(clocks, t.exitV)
			}
		}
	}
	frontier := vclock.MeetAll(clocks)
	e.store.Collect(frontier)
	for _, t := range e.threads {
		// The trim shifts every surviving slice's position.
		t.slicePtrs = slicestore.TrimList(t.slicePtrs, frontier)
		t.forgetMarks()
	}
}
