package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"rfdet/internal/api"
	"rfdet/internal/kendo"
	"rfdet/internal/mem"
	"rfdet/internal/racecheck"
	"rfdet/internal/slicestore"
	"rfdet/internal/trace"
	"rfdet/internal/vclock"
	"rfdet/internal/vtime"
)

// thread is one logical DMT thread: a private address space, a DLRC vector
// clock, the slice-pointer list of §4.3, and the current slice's monitoring
// state. A thread struct is mutated by its own goroutine, or — for the
// monitor-guarded fields — by other threads inside the monitor while this
// thread is provably blocked (lock grant, barrier merge).
type thread struct {
	exec *exec
	id   api.ThreadID
	fn   api.ThreadFunc
	proc *kendo.Proc

	// inMonitor is set between enter and leave, by this thread's goroutine
	// only: runThread's recover reads it to learn whether a panic unwound out
	// of a monitor section with exec.mu still held.
	inMonitor bool

	// space is the thread's private view of shared memory.
	space *mem.Space
	// vtime is the DLRC vector clock (§4.2). Same discipline as slicePtrs;
	// the cross-thread readers are prelockLocked and gcLocked.
	//detvet:notguarded ordered by the deterministic turn, not a mutex: written by this thread under its own turn, or by the turn holder on its behalf while it is provably blocked; read cross-thread only by a turn holder
	vtime vclock.VC
	// vt is the thread's virtual time under the internal/vtime cost model.
	vt vtime.Time
	// monitoring is false only in the main thread before its first
	// pthread_create (§4.1).
	monitoring bool
	// lag is the ticks not yet published to proc's clock, 1<<shift the lag that
	// publishes them (tick); both sit in the flags' padding, and so does
	// storeCheck, what a store costs beyond MemOp: vtime.StoreCheck while the
	// CI monitor checks stores (enableDirtyTracking), else 0.
	shift      uint8
	storeCheck uint8
	lag        uint32

	// slicePtrs is the happens-before-ordered list of all slices visible to
	// this thread (§4.3). It is mutated only by a turn holder: this thread's
	// own commits and acquires, gcLocked's trim, or another thread acting on
	// this one's behalf while it is provably blocked (lock grant, premerge,
	// signal and join acquires, barrier merge). Other threads walk it during
	// their propagation, also under the turn.
	//detvet:notguarded ordered by the deterministic turn, not a mutex: every writer and every cross-thread walker holds the turn (sync.go header)
	slicePtrs []*slicestore.Slice
	// marks is the windowed-collection state of slicePtrs (propagate.go):
	// (*marks)[r] = k records that an earlier collection by thread r already
	// saw every one of slicePtrs[:k] ≤ r's clock, so r's next collection
	// starts at k. It lives with the list it indexes — whoever trims or
	// replaces slicePtrs calls forgetMarks — and behind one pointer, nil until
	// a reader first advances a mark, which keeps thread small
	// (TestThreadStaysInSizeClass). Same turn discipline as slicePtrs.
	//detvet:notguarded ordered by the deterministic turn, like slicePtrs: written only by collectLocked and the two list-rewriting sites, all turn-held
	marks *[]int

	// preMerged records slices applied by a prelock pre-merge (§4.5) so the
	// eventual acquire skips them. Empty when no pre-merge is outstanding.
	preMerged map[*slicestore.Slice]bool

	// sliceReads accumulates the current slice's harvested read ranges
	// (Options.RaceDetect only): finishSlice drains the space's read tracker
	// here, commitSliceLocked hands them to the detector.
	sliceReads []racecheck.Range

	// pendingSignal carries the cond-signal release record from the
	// signaler to this waiter (set under exec.mu while the waiter sleeps).
	pendingSignal *signalRecord

	wake chan wakeEvent
	// trace is this thread's deterministic sync events (nil unless
	// Options.Trace), appended only by its own goroutine; trace.go sorts
	// every thread's list together by deterministic keys.
	trace []traceEvent
	// tb is the thread's phase-trace buffer (nil unless Options.PhaseTrace).
	// Appended to by this thread's goroutine, or — while this thread is
	// provably blocked — by another thread under exec.mu, the same ownership
	// discipline as st.
	tb *trace.ThreadBuf
	// blockStart is the epoch-relative instant this thread began blocking,
	// captured under the monitor in blockLocked so that spans recorded on the
	// thread's behalf by other goroutines (premerge, barrier merge) provably
	// nest inside the block span.
	blockStart int64
	joiners    []*thread
	exitV      vclock.VC
	exitVT     vtime.Time
	// scratch is set at creation and never changed within the execution;
	// the Runtime keeps it for the next one (keepScratchLocked).
	scratch *threadScratch

	st  api.Stats
	obs []uint64

	// ranSeen is exec.ran when the thread last began to wait for the turn;
	// watch is the thread whose deferred release this one, blocked, takes
	// over; held is the mutexes it holds, as far as two slots go (sync.go).
	// Last, so that the access path's fields keep their offsets.
	ranSeen uint64
	watch   *thread
	held    [2]*syncVar
}

// threadScratch is the working storage a thread re-uses instead of
// re-making, plus its block site. No published slice, collect result or wake
// event ever aliases it: the next call that uses it overwrites it. Its
// buffers outlive the thread: the Runtime hands them to a thread of its next
// execution, emptied (keepScratchLocked).
type threadScratch struct {
	// precut's, which finishSlice commits: a page record's extents and run
	// list, by position in DirtyPages and never shortened, the one payload
	// staging area under the runs, and the cut's tally. (One run list for all
	// pages regrows through append's 1.25× steps on a thread's first cuts:
	// matmul allocated 17% more KiB per run that way.)
	pages []pageCut
	stage []byte
	cut   cutTally
	// picked is collectLocked's: list positions of the slices it takes.
	picked []int32
	// flushOrder is flushAllPending's: the pended pages, ascending.
	flushOrder []mem.PageID
	site       blockSite
	// rel is the thread's deferred release (sync.go).
	rel release
}

// release is a deferred Unlock's ordered half (sync.go). The releaser fills
// the fields while key is 0, then stores key, its Kendo clock at the Unlock
// (never 0: the grant ticked past it); the runner clears them, then key.
type release struct {
	key   atomic.Uint64
	sv    *syncVar
	slice *slicestore.Slice
	vt    vtime.Time
	reads []racecheck.Range
}

// pageCut is one page record's part of a pre-cut: its extents, as
// DirtyExtentsOf rendered them, and the runs its diff cut.
type pageCut struct {
	exts []mem.Extent
	runs []mem.Run
}

// cutTally is what a pre-cut diffed: its runs, and the extents and bytes it
// scanned, which finishSlice counts.
type cutTally struct {
	runs             int
	extents, scanned uint64
}

// ID returns the deterministic thread ID.
func (t *thread) ID() api.ThreadID { return t.id }

// chunking is when a thread publishes its Kendo clock: at a lag of 1<<first
// ticks after an operation, doubling with each publication up to 1<<last.
type chunking struct{ first, last uint8 }

// tickChunk, 1 to 64 ticks, is every execution's but one test's. Kendo publishes
// a chunk at a time too (§4.1); a largest chunk of 16, 64 or 256 reads the same
// on every workload (EXPERIMENTS.md, "Access fast path"), and 64 is ~0.5 µs.
var tickChunk = chunking{0, 6}

// tick counts n instructions. The published clock only ever lags the true one:
// a waiter is admitted later than under exact clocks, never earlier, and the
// (clock, tid) admission order is unchanged (DESIGN.md §6). The chunk doubles
// because a thread fresh from an operation held the smallest clock: the waiters
// it will pass sit a few ticks ahead, and one d ticks ahead is admitted within
// 2d (a fixed chunk cost water_ns, 2–10 ticks between operations, 2–3.5%).
func (t *thread) tick(n uint64) {
	if l := uint64(t.lag) + n; l < 1<<(t.shift&63) {
		t.lag = uint32(l)
	} else {
		t.publish(n, min(t.shift+1, t.exec.chunk.last))
	}
}

// publish makes the Kendo clock exact, plus extra. waitTurn (an operation's or
// an exit's) and finishOpLocked — every way a Running thread stops ticking —
// start with it, and restart the chunk at chunk.first.
func (t *thread) publish(extra uint64, shift uint8) {
	t.proc.Tick(uint64(t.lag) + extra)
	t.lag, t.shift = 0, shift
}

// Tick advances the Kendo logical clock and virtual time by n instructions.
func (t *thread) Tick(n uint64) {
	t.tick(n)
	t.vt += vtime.Time(n) * vtime.MemOp
}

// Observe appends values to the deterministic output log.
func (t *thread) Observe(vals ...uint64) {
	t.obs = append(t.obs, vals...)
}

//
// Memory accesses. Every load/store counts one tick, as the paper's per-basic-
// block instrumentation does (§4.1); tick publishes them a chunk at a time.
// The slice's snapshot of a page and its written extents are one record, kept
// by the thread's space (mem.Space.SnapshotPage); the thread has no list. A
// load that its page's cache slot answers reads the page here, with no call
// (mem.Space.Loadable); every other access goes through the space. A store
// to a page the slice has no record of faults to onFault there, which takes
// the snapshot under either monitor; storeTick charges RFDet-ci's check of
// the store (Figure 4). Both ticks must stay inlinable (verify.sh).
//

func (t *thread) loadTick() {
	t.tick(1)
	t.st.Loads++
	t.vt += vtime.MemOp
}

func (t *thread) storeTick() {
	t.tick(1)
	t.st.Stores++
	t.vt += vtime.MemOp + vtime.Time(t.storeCheck)
}

// onFault is the simulated SIGSEGV handler, installed while the space tracks
// (enableDirtyTracking). The space faults any access to a page with pended
// lazy modifications, which is flushed here, and a store to a page the slice
// has no record of — RFDet-ci's store check and RFDet-pf's write-protected
// page alike — which is the one place the slice snapshots it (Figure 4, lines
// 5-7), after the flush, so that the snapshot baseline holds everything that
// happens-before this slice. Under PF the write fault itself is charged too.
func (t *thread) onFault(pid mem.PageID, write bool) {
	if t.space.Pended(pid) {
		t.flushPage(pid, true)
	}
	if !write || t.space.SnapshotOf(pid) != nil {
		return
	}
	if t.exec.opts.Monitor == MonitorPF {
		t.st.PageFaults++
		t.vt += vtime.Fault
	}
	t.exec.store.AllocSnapshot()
	t.space.SnapshotPage(pid)
	t.st.StoresWithCopy++
	t.vt += vtime.SnapshotPage
}

func (t *thread) Load8(a api.Addr) uint8 {
	t.loadTick()
	if p := t.space.Loadable(uint64(a), 1); p != nil {
		return p[a&mem.PageMask]
	}
	return t.space.Load8(uint64(a))
}

func (t *thread) Store8(a api.Addr, v uint8) {
	t.storeTick()
	t.space.Store8(uint64(a), v)
}

func (t *thread) Load32(a api.Addr) uint32 {
	t.loadTick()
	if p := t.space.Loadable(uint64(a), 4); p != nil {
		return binary.LittleEndian.Uint32(p[a&mem.PageMask:])
	}
	return t.space.Load32(uint64(a))
}

func (t *thread) Store32(a api.Addr, v uint32) {
	t.storeTick()
	t.space.Store32(uint64(a), v)
}

func (t *thread) Load64(a api.Addr) uint64 {
	t.loadTick()
	if p := t.space.Loadable(uint64(a), 8); p != nil {
		return binary.LittleEndian.Uint64(p[a&mem.PageMask:])
	}
	return t.space.Load64(uint64(a))
}

func (t *thread) Store64(a api.Addr, v uint64) {
	t.storeTick()
	t.space.Store64(uint64(a), v)
}

func (t *thread) LoadF64(a api.Addr) float64 {
	t.loadTick()
	if p := t.space.Loadable(uint64(a), 8); p != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(p[a&mem.PageMask:]))
	}
	return math.Float64frombits(t.space.Load64(uint64(a)))
}

func (t *thread) StoreF64(a api.Addr, v float64) { t.Store64(a, math.Float64bits(v)) }

func (t *thread) ReadBytes(a api.Addr, buf []byte) {
	if len(buf) == 0 {
		return
	}
	t.tick(uint64(len(buf)))
	t.st.Loads++
	t.vt += vtime.Time(len(buf)) * vtime.MemOp
	t.space.ReadBytes(uint64(a), buf)
}

func (t *thread) WriteBytes(a api.Addr, data []byte) {
	if len(data) == 0 {
		return
	}
	t.tick(uint64(len(data)))
	t.st.Stores++
	t.vt += vtime.Time(len(data))*vtime.MemOp + vtime.Time(t.storeCheck)
	t.space.WriteBytes(uint64(a), data)
}

// Malloc allocates shared memory from the thread's deterministic heap
// (§4.4).
func (t *thread) Malloc(size uint64) api.Addr {
	t.Tick(8)
	return api.Addr(t.exec.alloc.Malloc(int(t.id), size))
}

// Free releases an allocation; the allocator routes the block to the owning
// heap (§4.4). Like Malloc it runs off the turn, so nothing orders a free of
// another thread's block against the owner's allocations: whether the
// owner's next Malloc reuses the block depends on the host schedule
// (DESIGN.md §6).
func (t *thread) Free(a api.Addr) {
	t.Tick(8)
	if err := t.exec.alloc.Free(uint64(a)); err != nil {
		t.exec.fail(fmt.Errorf("rfdet: thread %d: %v", t.id, err))
		panic(errAborted)
	}
}

//
// Slice lifecycle (§4.2).
//

// beginSlice starts monitoring a new slice. Under the PF monitor this is
// where the whole shared mapping is write-protected — the per-slice cost
// that makes RFDet-pf slower than RFDet-ci on sync-heavy programs (§5.2) —
// charged per resident page; the space faults a slice's first store to a
// page under either monitor. It reads only the thread's own state.
func (t *thread) beginSlice() {
	if !t.monitoring || t.exec.opts.Monitor != MonitorPF {
		return
	}
	n := t.space.ResidentBytes() / mem.PageSize
	t.st.PageProtects += n
	t.vt += vtime.Time(n) * vtime.ProtectPage
}

// enableDirtyTracking turns on sub-page dirty tracking for the thread's
// space and installs onFault, so that the space faults to its monitor
// exactly while it tracks. Called once per space, wherever a thread starts
// (or resumes, after a barrier re-clone) monitoring modifications: the
// method value is an allocation. It sets the store check's charge too. With
// the race detector on it also (re-)enables per-slice read-set tracking,
// which rides the same lifecycle: a fresh or re-cloned space starts with
// tracking off.
func (t *thread) enableDirtyTracking() {
	t.space.SetFaultHandler(t.onFault)
	t.space.SetDirtyTracking(true)
	if t.exec.opts.Monitor == MonitorCI {
		t.storeCheck = uint8(vtime.StoreCheck)
	}
	if t.exec.races != nil {
		t.space.SetReadTracking(true)
	}
}

// harvestReads drains the space's per-slice read tracker into t.sliceReads
// as absolute address ranges (Options.RaceDetect only; no-op otherwise).
// Called at every slice end, including slices that wrote nothing.
func (t *thread) harvestReads() {
	if !t.space.ReadTracking() {
		return
	}
	for _, pid := range t.space.ReadPages() {
		t.sliceReads = racecheck.RangesFromExtents(t.sliceReads, pid, t.space.ReadExtentsOf(pid))
	}
	t.space.ResetReads()
}

// A slice ends (§4.2) in two halves: precut byte-diffs each snapshotted page
// against its current contents into the thread's scratch, and finishSlice
// commits that diff as the slice's modification list and releases the
// snapshot memory at once, as in §5.4.
//
// The pages are the space's page records, in first-touch order, each with its
// snapshot and its written extents (mem's dirtyPage has the invariant). Only
// the extents are scanned (DiffPageExtents): the diff is O(written bytes),
// not O(snapshotted pages × page size). The modification list is
// byte-for-byte the one a full-page scan would produce (see
// mem.DiffPageExtents for the argument), and the virtual-time model still
// charges vtime.DiffPage per snapshotted page: the paper's system cannot see
// sub-page extents, so the win is host wall time (the diff span), deliberately
// invisible to the deterministic virtual clock and the trace.
//
// precut reads the space and writes only the scratch and the thread's own
// phase buffer, so it needs no turn: waitTurn runs it before WaitForTurn.
// Lock's is speculative, and when slice merging continues the slice nothing
// commits it. Each page's extents are rendered once, then the pages are
// diffed in record order, extent by extent, each into its run list over one
// staging area, sized first so that the diff never grows it. The diff span
// times the pre-cut alone; the commit is untimed.
func (t *thread) precut() {
	sc := t.scratch
	sc.cut = cutTally{}
	pages := t.space.DirtyPages()
	if len(pages) == 0 {
		return
	}
	ts := t.tb.Now()
	for i, pid := range pages {
		if i == len(sc.pages) {
			sc.pages = append(sc.pages, pageCut{})
		}
		exts := t.space.DirtyExtentsOf(pid)
		sc.pages[i].exts = exts
		sc.cut.extents += uint64(len(exts))
		sc.cut.scanned += mem.ExtentBytes(exts)
	}
	if uint64(cap(sc.stage)) < sc.cut.scanned {
		sc.stage = make([]byte, 0, sc.cut.scanned)
	}
	stage := sc.stage[:0]
	for i, pid := range pages {
		pc := &sc.pages[i]
		pc.runs, stage = mem.AppendDiffPageExtents(pc.runs[:0], stage,
			pid, t.space.SnapshotOf(pid), t.space.PageData(pid), pc.exts)
		sc.cut.runs += len(pc.runs)
	}
	sc.stage = stage
	t.tb.Span(trace.PhaseDiff, ts)
}

// finishSlice commits the operation's pre-cut under the turn, which orders the
// store's snapshot release and the clock stamped on the slice: between the turn
// and enter where the operation always ends the slice, inside the monitor
// section where monitor-guarded state decides (Lock, thread exit —
// endSliceLocked). It returns nil when the slice made no modifications. What
// the slice keeps is copied out once, exact-size — its struct, its clock, one
// []mem.Run, one payload block every Run.Data sub-slices — and never a byte of
// scratch, which the next pre-cut overwrites while the store holds this.
// ResetDirty hands the snapshots back.
func (t *thread) finishSlice() *slicestore.Slice {
	if t.exec.opts.Validate && !t.space.CacheConsistent() {
		panic("page cache disagrees with the page table")
	}
	t.harvestReads()
	pages, sc := t.space.DirtyPages(), t.scratch
	if len(pages) == 0 {
		return nil
	}
	t.st.DirtyExtents += sc.cut.extents
	t.st.DiffBytesScanned += sc.cut.scanned
	// An extent never crosses its page, so each page skips PageSize - its bytes.
	t.st.DiffBytesSkipped += uint64(len(pages))*mem.PageSize - sc.cut.scanned
	// The runs' bytes lie end to end in stage, in run order.
	payload := make([]byte, len(sc.stage))
	copy(payload, sc.stage)
	mods := make([]mem.Run, 0, sc.cut.runs)
	off := 0
	for _, pc := range sc.pages[:len(pages)] {
		for _, r := range pc.runs {
			end := off + len(r.Data)
			mods = append(mods, mem.Run{Addr: r.Addr, Data: payload[off:end:end]})
			off = end
		}
	}
	mem.PoisonScratch(sc.stage)
	for range pages {
		t.exec.store.FreeSnapshot()
		t.vt += vtime.DiffPage
	}
	t.space.ResetDirty()
	if len(mods) == 0 {
		return nil
	}
	return &slicestore.Slice{
		Tid:   int32(t.id),
		Time:  t.vtime.Clone(),
		Mods:  mods,
		Bytes: uint64(len(payload)),
	}
}

// commitSliceLocked commits a slice finished off-monitor: it publishes the
// slice (publishSliceLocked) and hands its access footprint to the race
// detector, if one is on. It returns the pre-bump clock — the timestamp a
// release operation must publish as lastTime: using the post-bump clock would
// let a slice committed later (with the bumped component) appear already-seen
// to a thread that joined this release's time, silently losing its
// modifications.
//
//detvet:holds exec.mu
func (t *thread) commitSliceLocked(s *slicestore.Slice) vclock.VC {
	tend := t.publishSliceLocked(s)
	if t.exec.races != nil {
		t.recordAccessLocked(s, tend, t.sliceReads, t.vt)
		t.sliceReads = nil
	}
	return tend
}

// publishSliceLocked appends the slice (if any) to the metadata space and this
// thread's slice-pointer list, then advances the thread's vector clock so
// every later slice is strictly newer (§4.2), and returns the pre-bump clock.
// A commit that crosses the metadata threshold runs the garbage-collection
// pass then and there. An atomic publishes its micro-slice here directly: it
// makes its own race record.
//
//detvet:holds exec.mu
func (t *thread) publishSliceLocked(s *slicestore.Slice) vclock.VC {
	var tend vclock.VC
	if s != nil {
		// The slice was stamped with a clone of this very clock (the turn has
		// been held since, so t.vtime has not moved), and a published clock is
		// only ever read or cloned, never a Join or Bump receiver: share it.
		tend = s.Time
		t.st.SlicesCreated++
		t.slicePtrs = append(t.slicePtrs, s)
		if t.exec.store.Commit(s) {
			t.exec.gcLocked()
		}
	} else {
		tend = t.vtime.Clone()
	}
	t.vtime = t.vtime.Bump(int(t.id))
	return tend
}

// recordAccessLocked hands the just-committed slice's access footprint —
// writes from its modification list, the reads finishSlice harvested — to the
// race detector, stamped with the slice's pre-bump clock and the virtual time
// vt of its end. Always reached inside the monitor and turn-held, which is
// what serializes and orders detector mutations (racecheck.Detector has no
// lock of its own); charges no virtual time.
//
//detvet:holds exec.mu
func (t *thread) recordAccessLocked(s *slicestore.Slice, tend vclock.VC, harvested []racecheck.Range, vt vtime.Time) {
	var writes []racecheck.Range
	if s != nil {
		// Mods list pages in first-write order; normalize into one sorted
		// coalesced range list.
		writes = racecheck.Normalize(racecheck.RangesFromRuns(s.Mods))
	}
	reads := racecheck.Normalize(harvested)
	if len(writes) == 0 && len(reads) == 0 {
		return
	}
	for _, r := range reads {
		t.st.RaceReadBytes += r.Len
	}
	t.st.RaceRecords++
	t.exec.races.Record(racecheck.Access{
		Tid:    int32(t.id),
		VT:     uint64(vt),
		Clock:  tend.Clone(),
		Writes: writes,
		Reads:  reads,
	})
}

// endSliceLocked commits the pre-cut slice under the monitor. Only the paths
// that decide under the monitor whether or how the slice ends use it: thread
// exit (whose section also settles the pended pages) and Lock, which learns
// whether the slice even ends (slice merging) only from monitor-guarded state.
// Their diff ran before the turn, like every operation's; what is left here is
// the commit.
//
//detvet:holds exec.mu
func (t *thread) endSliceLocked() vclock.VC {
	return t.commitSliceLocked(t.finishSlice())
}

//
// Lazy writes (§4.5).
//

// pendSlices pends propagated slices per page in the space instead of
// applying them: a page's record references the runs on it and copies
// nothing, and the page faults until the flush its first access triggers.
func (t *thread) pendSlices(slices []*slicestore.Slice) {
	for _, s := range slices {
		t.space.Pend(s.Mods)
		// Bookkeeping cost only: the writes themselves are deferred.
		t.vt += vtime.Time(len(s.Mods)) * 4
	}
}

// flushPage applies the pended modifications for one page, last writer
// winning in propagation order, and restores access. The virtual-time cost
// counts each byte once even if multiple propagations pended overlapping
// updates — the "just one update" saving of §4.5 — and so does the host: the
// flush copies each distinct byte once, from the newest run that wrote it.
// Without apply it copies none: the page is charged exactly as its flush
// would be and left unwritten (mem.PendingPage.Discard).
func (t *thread) flushPage(pid mem.PageID, apply bool) {
	ts := t.tb.Now()
	defer t.tb.Span(trace.PhaseLazyFlush, ts)
	runs, raw, distinct := t.space.FlushPending(pid, apply)
	t.st.LazyPendingApplied += runs
	t.st.LazyRunsElided += raw - distinct
	t.vt += vtime.ApplyCost(1, distinct)
}

// flushAllPending flushes every pended page in deterministic order: applying
// them at a barrier arrival, before Spawn clones the space, and at thread 0's
// exit, whose space the report hashes; at any other thread's exit, whose
// space nobody reads again, only charging them — zero updates where §4.5's
// flush makes one.
func (t *thread) flushAllPending(apply bool) {
	t.scratch.flushOrder = t.space.PendedPages(t.scratch.flushOrder[:0])
	for _, pid := range t.scratch.flushOrder {
		t.flushPage(pid, apply)
	}
}
