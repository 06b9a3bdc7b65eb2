// Package pthreads implements the conventional nondeterministic
// multithreading baseline the paper normalizes against (§5.2, "pthreads").
//
// All threads share one address space — one mem.Space, the type each RFDet
// thread and each DThreads view is — and synchronize through real Go
// primitives mapped one-to-one onto the pthreads operations. The runtime is
// intentionally nondeterministic: lock-acquisition order, condition wakeups
// and data races resolve however the host scheduler resolves them, exactly
// like pthreads on a stock kernel. Memory accesses are serialized by a lock
// around the shared space (so racy workloads do not trip Go's race
// detector); scheduling nondeterminism between accesses is preserved. The
// report's output hash folds the space with mem.Space.Hash, as the other
// runtimes fold theirs.
package pthreads

import (
	"errors"
	"fmt"
	"math"
	//detvet:wallclock pthreads is the nondeterministic baseline; rand jitter emulates preemption noise.
	"math/rand"
	"runtime"
	"sync"
	"time"

	"rfdet/internal/alloc"
	"rfdet/internal/api"
	"rfdet/internal/mem"
	"rfdet/internal/stats"
	"rfdet/internal/vtime"
)

// Runtime is the pthreads baseline. It satisfies api.Runtime.
type Runtime struct{}

// New returns a pthreads runtime.
func New() *Runtime { return &Runtime{} }

// Name returns "pthreads".
func (r *Runtime) Name() string { return "pthreads" }

// errAborted is the panic sentinel that unwinds a thread goroutine after the
// execution has failed; the abort path mirrors internal/core's recoverable
// abort so runtime errors (allocator failures, replay divergence injected by
// wrappers) surface as an error from Run instead of crashing the host
// process or hanging its peers.
var errAborted = errors.New("pthreads: execution aborted")

// exec is one program execution.
type exec struct {
	alloc *alloc.Allocator
	space *sharedSpace

	// abort is closed (once) when the execution fails, so channel-parked
	// threads (cond waits) can unwind without a wakeup from the failed peer.
	abort chan struct{}

	mu       sync.Mutex
	threads  []*thread
	syncvars map[api.Addr]*syncVar
	err      error
	aborted  bool
	wg       sync.WaitGroup
}

// fail aborts the execution with err (first error wins): it closes the abort
// channel and broadcasts every barrier condition, so blocked threads observe
// the abort and unwind via errAborted instead of waiting for wakeups their
// failed peers will never deliver.
func (e *exec) fail(err error) {
	e.mu.Lock()
	if e.aborted {
		e.mu.Unlock()
		return
	}
	e.aborted = true
	if e.err == nil {
		e.err = err
	}
	close(e.abort)
	svs := make([]*syncVar, 0, len(e.syncvars))
	for _, sv := range e.syncvars {
		svs = append(svs, sv)
	}
	e.mu.Unlock()
	for _, sv := range svs {
		sv.barMu.Lock()
		sv.barCond.Broadcast()
		sv.barMu.Unlock()
	}
}

// isAborted reports whether the execution has failed.
func (e *exec) isAborted() bool {
	select {
	case <-e.abort:
		return true
	default:
		return false
	}
}

// sharedSpace is the single flat shared memory, one mem.Space that every
// thread accesses under mu, so racy byte-level accesses are data races only
// at the simulated level, not Go data races.
type sharedSpace struct {
	mu    sync.Mutex
	space *mem.Space
}

// syncVar backs one application synchronization address. The same address
// may be used as a mutex (mu), a condition variable (waiters), a barrier or
// an atomic word, matching how pthreads objects occupy application memory.
type syncVar struct {
	mu     sync.Mutex // the application mutex
	lastVT vtime.Time // virtual time of last unlock (guarded by mu)
	// Condition-variable state.
	qmu     sync.Mutex
	waiters []chan struct{}
	sigVT   vtime.Time
	// Barrier state.
	barMu    sync.Mutex
	barCond  *sync.Cond
	barCount int
	barGen   uint64
	barVT    vtime.Time
	// Atomic-word release time (guarded by qmu).
	atomVT vtime.Time
}

func (e *exec) syncvar(a api.Addr) *syncVar {
	e.mu.Lock()
	defer e.mu.Unlock()
	sv, ok := e.syncvars[a]
	if !ok {
		sv = &syncVar{}
		sv.barCond = sync.NewCond(&sv.barMu)
		e.syncvars[a] = sv
	}
	return sv
}

// thread is one pthreads thread.
type thread struct {
	exec *exec
	id   api.ThreadID
	fn   api.ThreadFunc
	done chan struct{}
	vt   vtime.Time
	st   api.Stats
	obs  []uint64
	// jitter emulates preemption timing noise: a conventional scheduler
	// interleaves threads at unpredictable points, which is exactly the
	// nondeterminism this baseline is supposed to exhibit. On a lightly
	// loaded host Go goroutines are rarely preempted, so racy programs
	// would look spuriously stable without it.
	jitter   *rand.Rand //detvet:wallclock baseline jitter source; nondeterminism is this runtime's point.
	opsSince int
}

// preemptMaybe yields the processor at randomized points, standing in for
// timer-interrupt preemption.
func (t *thread) preemptMaybe() {
	t.opsSince++
	if t.opsSince < 64 {
		return
	}
	t.opsSince = 0
	if t.jitter.Intn(4) == 0 {
		runtime.Gosched()
	}
}

// Run executes main as thread 0.
func (r *Runtime) Run(main api.ThreadFunc) (*api.Report, error) {
	e := &exec{
		alloc:    alloc.New(),
		space:    &sharedSpace{space: mem.NewSpace()},
		syncvars: make(map[api.Addr]*syncVar),
		abort:    make(chan struct{}),
	}
	e.alloc.Register(0)
	t0 := &thread{exec: e, id: 0, fn: main, done: make(chan struct{}),
		//detvet:wallclock baseline jitter seed: nondeterminism is this runtime's point.
		jitter: rand.New(rand.NewSource(time.Now().UnixNano()))}
	e.threads = append(e.threads, t0)
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
	rep := api.NewReport(e.threads, func(t *thread) api.ThreadShare {
		return api.ThreadShare{ID: t.id, Obs: t.obs, Stats: &t.st, ExitVT: uint64(t.vt)}
	}, e.space.space.Hash(), e.alloc.HighWater(), elapsed)
	rep.Stats.RuntimeMemBytes = e.alloc.HighWater()
	return rep, nil
}

func (e *exec) runThread(t *thread) {
	defer e.wg.Done()
	defer close(t.done)
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if r == errAborted { //nolint:errorlint // sentinel identity
			return // the failure is already recorded
		}
		// Any other panic is a failure of this thread; abort the execution so
		// peers blocked on this thread's wakeups unwind too.
		e.fail(fmt.Errorf("pthreads: thread %d panicked: %v", t.id, r))
	}()
	t.fn(t)
}

// ID returns the thread's ID (creation order; nondeterministic under races).
func (t *thread) ID() api.ThreadID { return t.id }

func (t *thread) Tick(n uint64) { t.vt += vtime.Time(n) * vtime.MemOp }

func (t *thread) Observe(vals ...uint64) { t.obs = append(t.obs, vals...) }

// access counts one access of n bytes into *count, lets the host preempt the
// thread first when preempt is set, and locks the shared memory for it: the
// caller unlocks t.exec.space.mu once the access is done.
func (t *thread) access(count *uint64, n int, preempt bool) *mem.Space {
	*count++
	t.vt += vtime.Time(n) * vtime.MemOp
	if preempt {
		t.preemptMaybe()
	}
	t.exec.space.mu.Lock()
	return t.exec.space.space
}

func (t *thread) Load8(a api.Addr) uint8 {
	v := t.access(&t.st.Loads, 1, true).Load8(uint64(a))
	t.exec.space.mu.Unlock()
	return v
}

func (t *thread) Store8(a api.Addr, v uint8) {
	t.access(&t.st.Stores, 1, true).Store8(uint64(a), v)
	t.exec.space.mu.Unlock()
}

func (t *thread) Load32(a api.Addr) uint32 {
	v := t.access(&t.st.Loads, 1, false).Load32(uint64(a))
	t.exec.space.mu.Unlock()
	return v
}

func (t *thread) Store32(a api.Addr, v uint32) {
	t.access(&t.st.Stores, 1, false).Store32(uint64(a), v)
	t.exec.space.mu.Unlock()
}

func (t *thread) Load64(a api.Addr) uint64 {
	v := t.access(&t.st.Loads, 1, true).Load64(uint64(a))
	t.exec.space.mu.Unlock()
	return v
}

func (t *thread) Store64(a api.Addr, v uint64) {
	t.access(&t.st.Stores, 1, true).Store64(uint64(a), v)
	t.exec.space.mu.Unlock()
}

func (t *thread) LoadF64(a api.Addr) float64 { return math.Float64frombits(t.Load64(a)) }

func (t *thread) StoreF64(a api.Addr, v float64) { t.Store64(a, math.Float64bits(v)) }

func (t *thread) ReadBytes(a api.Addr, buf []byte) {
	if len(buf) > 0 {
		t.access(&t.st.Loads, len(buf), false).ReadBytes(uint64(a), buf)
		t.exec.space.mu.Unlock()
	}
}

func (t *thread) WriteBytes(a api.Addr, data []byte) {
	if len(data) > 0 {
		t.access(&t.st.Stores, len(data), false).WriteBytes(uint64(a), data)
		t.exec.space.mu.Unlock()
	}
}

func (t *thread) Malloc(size uint64) api.Addr {
	t.Tick(8)
	return api.Addr(t.exec.alloc.Malloc(int(t.id), size))
}

func (t *thread) Free(a api.Addr) {
	t.Tick(8)
	if err := t.exec.alloc.Free(uint64(a)); err != nil {
		t.exec.fail(fmt.Errorf("pthreads: thread %d: %v", t.id, err))
		panic(errAborted)
	}
}

func (t *thread) Lock(m api.Addr) {
	t.st.Locks++
	t.vt += vtime.SyncBase
	sv := t.exec.syncvar(m)
	sv.mu.Lock()
	t.vt = vtime.Max(t.vt, sv.lastVT)
}

func (t *thread) Unlock(m api.Addr) {
	t.st.Unlocks++
	t.vt += vtime.SyncBase
	sv := t.exec.syncvar(m)
	sv.lastVT = t.vt
	sv.mu.Unlock()
}

func (t *thread) Wait(c, m api.Addr) {
	t.st.Waits++
	t.vt += vtime.SyncBase
	svc := t.exec.syncvar(c)
	svm := t.exec.syncvar(m)
	// pthread_cond_wait: register on c, atomically release m, sleep until
	// signaled, reacquire m. Registering before releasing m closes the
	// lost-wakeup window for signalers that hold m.
	ch := make(chan struct{})
	svc.qmu.Lock()
	svc.waiters = append(svc.waiters, ch)
	svc.qmu.Unlock()
	svm.lastVT = t.vt
	svm.mu.Unlock()
	select {
	case <-ch:
	case <-t.exec.abort:
		panic(errAborted)
	}
	svm.mu.Lock()
	svc.qmu.Lock()
	t.vt = vtime.Max(t.vt, svc.sigVT)
	svc.qmu.Unlock()
	t.vt = vtime.Max(t.vt, svm.lastVT) + vtime.LockHandoff
}

func (t *thread) Signal(c api.Addr) {
	t.st.Signals++
	t.vt += vtime.SyncBase
	sv := t.exec.syncvar(c)
	sv.qmu.Lock()
	sv.sigVT = vtime.Max(sv.sigVT, t.vt)
	if len(sv.waiters) > 0 {
		close(sv.waiters[0])
		sv.waiters = sv.waiters[1:]
	}
	sv.qmu.Unlock()
}

func (t *thread) Broadcast(c api.Addr) {
	t.st.Signals++
	t.vt += vtime.SyncBase
	sv := t.exec.syncvar(c)
	sv.qmu.Lock()
	sv.sigVT = vtime.Max(sv.sigVT, t.vt)
	for _, ch := range sv.waiters {
		close(ch)
	}
	sv.waiters = nil
	sv.qmu.Unlock()
}

func (t *thread) Barrier(b api.Addr, n int) {
	t.st.Barriers++
	t.vt += vtime.SyncBase
	sv := t.exec.syncvar(b)
	sv.barMu.Lock()
	sv.barVT = vtime.Max(sv.barVT, t.vt)
	sv.barCount++
	if sv.barCount >= n {
		sv.barCount = 0
		sv.barGen++
		sv.barVT += vtime.FencePhase
		t.vt = sv.barVT
		sv.barCond.Broadcast()
		sv.barMu.Unlock()
		return
	}
	gen := sv.barGen
	for gen == sv.barGen {
		// fail broadcasts under barMu, which we hold between this check and
		// Wait's atomic release, so the abort wakeup cannot be missed.
		if t.exec.isAborted() {
			sv.barMu.Unlock()
			panic(errAborted)
		}
		sv.barCond.Wait()
	}
	t.vt = sv.barVT
	sv.barMu.Unlock()
}

func (t *thread) Spawn(fn api.ThreadFunc) api.ThreadID {
	t.st.Forks++
	t.vt += vtime.SyncBase
	e := t.exec
	e.mu.Lock()
	id := api.ThreadID(len(e.threads))
	child := &thread{exec: e, id: id, fn: fn, done: make(chan struct{}), vt: t.vt + vtime.ThreadSpawn,
		//detvet:wallclock baseline jitter seed: nondeterminism is this runtime's point.
		jitter: rand.New(rand.NewSource(time.Now().UnixNano() + int64(id)))}
	e.threads = append(e.threads, child)
	e.alloc.Register(int(id))
	e.wg.Add(1)
	e.mu.Unlock()
	go e.runThread(child)
	return id
}

func (t *thread) Join(id api.ThreadID) {
	t.st.Joins++
	t.vt += vtime.SyncBase
	e := t.exec
	e.mu.Lock()
	if id < 0 || int(id) >= len(e.threads) {
		e.mu.Unlock()
		panic(fmt.Sprintf("pthreads: join of unknown thread %d", id))
	}
	target := e.threads[id]
	e.mu.Unlock()
	<-target.done
	t.vt = vtime.Max(t.vt, target.vt)
}

func (t *thread) AtomicAdd64(a api.Addr, delta uint64) uint64 {
	t.st.AtomicsOps++
	sv := t.exec.syncvar(a)
	sv.qmu.Lock()
	t.vt = vtime.Max(t.vt+vtime.SyncBase, sv.atomVT)
	v := t.Load64(a) + delta
	t.Store64(a, v)
	sv.atomVT = t.vt
	sv.qmu.Unlock()
	return v
}

func (t *thread) AtomicCAS64(a api.Addr, old, new uint64) bool {
	t.st.AtomicsOps++
	sv := t.exec.syncvar(a)
	sv.qmu.Lock()
	defer sv.qmu.Unlock()
	t.vt = vtime.Max(t.vt+vtime.SyncBase, sv.atomVT)
	if t.Load64(a) != old {
		return false
	}
	t.Store64(a, new)
	sv.atomVT = t.vt
	return true
}
