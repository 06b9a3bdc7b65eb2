package core

import (
	"fmt"

	"rfdet/internal/api"
	"rfdet/internal/mem"
	"rfdet/internal/slicestore"
	"rfdet/internal/trace"
	"rfdet/internal/vclock"
	"rfdet/internal/vtime"
)

// Memory modification propagation (§4.3, Figure 5).
//
// When thread t performs an acquire that synchronizes with a release by
// thread "from", t walks from's slice-pointer list and propagates every
// slice S with
//
//	S.Time ≤ upper   (the upperlimit filter: only happens-before slices)
//	¬(S.Time ≤ lower) (the lowerlimit filter: skip already-seen slices)
//
// where upper is the release's timestamp and lower is t's own clock — at
// every call site, so collectLocked reads it from t rather than taking it.
// Propagated slices are appended to t's own slice-pointer list, which is what
// makes propagation transitive, and their modifications are applied to t's
// memory in list order, which is what makes remote modifications
// deterministically overwrite local ones.
//
// The work splits into a monitor half and a private half. Collecting walks
// the releaser's monitor-guarded slice-pointer list, appends to the
// acquirer's list and joins the vector clocks: that runs inside the
// operation's monitor section, under the deterministic turn (which is what
// actually orders the lists). Applying the collected modification runs
// touches only the acquirer's private address space: for the acquire paths —
// where the applying thread owns its space — it runs off the monitor, after
// the operation leaves it (an atomic, which reads the word inside its
// section, applies there). The prelock pre-merge and the barrier merge
// instead mutate *blocked* threads' spaces, which is only sound while the
// monitor proves they stay blocked, so those applications remain inside it.

// collectLocked gathers the slices to propagate from from's list. Must run
// inside a monitor section (the list is monitor-guarded). Slices already applied by a prelock
// pre-merge (t.preMerged) are skipped: the lowerlimit clock cannot represent
// that set exactly, because the pre-merge may have applied slices that are
// concurrent with everything the thread had officially seen.
//
// The scan is windowed: it starts at t's low-water mark on from's list — the
// prefix in which an earlier scan by t saw every slice ≤ t.vtime — instead
// of at 0. The skipped prefix is exactly what the lowerlimit filter would
// skip again: t.vtime only grows (Join and Bump), and from's list only grows
// at its tail, except at gcLocked's trim and the barrier's re-list, which
// both call forgetMarks. The mark then advances over the leading run of the
// window that is ≤ t.vtime now; everything after the first slice t has not
// seen keeps the paper's per-element filter, because list position says
// nothing about it (a concurrent slice t never acquires can sit in front of
// any number of slices it has). With Options.Validate the paper's whole-list
// scan runs beside the window and the two results are compared
// (collectFullScan). Both filters compare one clock component (seenBy).
//
//detvet:holds exec.mu
func (t *thread) collectLocked(from *thread, upper vclock.VC) []*slicestore.Slice {
	lower := t.vtime
	list := from.slicePtrs
	if l := uint64(len(list)); l > t.st.SliceListLen {
		t.st.SliceListLen = l
	}
	// A mark past the end can only be a missed forgetMarks. Clamped, that
	// defect reads as a Validate error or a wrong result rather than a panic
	// inside a monitor section.
	start := min(from.markFor(t.id), len(list))
	t.st.CollectScanned += uint64(len(list) - start)
	mark := start
	for mark < len(list) && seenBy(list[mark], lower) {
		t.st.SlicesFilteredLow++
		mark++
	}
	if mark > start {
		from.setMarkFor(t.id, mark)
	}
	// The filter records positions in scratch and the result is made once,
	// exact-size — always a fresh slice, never scratch: a waker parks it in
	// wakeEvent.slices, where it outlives any number of later collects.
	picked := t.scratch.picked[:0]
	for i, s := range list[mark:] {
		if seenBy(s, lower) {
			t.st.SlicesFilteredLow++
			continue
		}
		if len(t.preMerged) != 0 && t.preMerged[s] {
			t.st.SlicesFilteredPremerged++
			continue
		}
		if seenBy(s, upper) {
			picked = append(picked, int32(mark+i))
		}
	}
	t.scratch.picked = picked
	out := make([]*slicestore.Slice, len(picked))
	for k, i := range picked {
		out[k] = list[i]
	}
	if e := t.exec; e.opts.Validate && e.collectErr == nil {
		if full := t.collectFullScan(from, upper); !sameSlices(out, full) {
			e.collectErr = fmt.Errorf("rfdet: validate: thread %d collect from %d: window %d.. returned %d slices, full scan %d",
				t.id, from.id, start, len(out), len(full))
		}
	}
	return out
}

// seenBy reports s.Time ≤ v by comparing the one component of s's creator,
// which is exact for every clock a collection compares against (the
// consistent-cut argument, after Louvre's one-version-number-per-thread
// test):
//   - every such clock is a join of clocks this runtime published: a thread's
//     vtime, a release's pre-bump clock, a barrier's merged clock, or, in the
//     prelock pre-merge, the lock holder's live clock;
//   - a thread's clock only grows, and each commit stamps the slice with the
//     thread's clock and then bumps the thread's own component;
//   - so a published clock whose component c has reached k joined a clock of
//     thread c from no earlier than the end of c's slice k, and dominates the
//     clock c stamped on that slice.
//
// A clock built by hand can break the property. collectFullScan keeps the full
// vclock.Leq as the reference, and Options.Validate checks the property on
// every list against every thread's final clock (validateLocked).
func seenBy(s *slicestore.Slice, v vclock.VC) bool {
	return s.Time.Get(int(s.Tid)) <= v.Get(int(s.Tid))
}

// collectFullScan is the propagation filter exactly as §4.3 and Figure 5
// state it — every slice of from's list against upperlimit and lowerlimit,
// by full vector-clock comparison — kept as the reference collectLocked's
// window and its creator-component test are compared with under
// Options.Validate. It counts nothing and no caller can select it.
func (t *thread) collectFullScan(from *thread, upper vclock.VC) []*slicestore.Slice {
	var out []*slicestore.Slice
	for _, s := range from.slicePtrs {
		if s.Time.Leq(t.vtime) || (len(t.preMerged) != 0 && t.preMerged[s]) {
			continue
		}
		if s.Time.Leq(upper) {
			out = append(out, s)
		}
	}
	return out
}

// markFor returns reader's low-water mark on t.slicePtrs (0 when none is
// recorded).
func (t *thread) markFor(reader api.ThreadID) int {
	if t.marks == nil || int(reader) >= len(*t.marks) {
		return 0
	}
	return (*t.marks)[reader]
}

// setMarkFor records reader's low-water mark on t.slicePtrs. The table is
// sized from the thread table on first use and regrown only for a reader
// spawned since.
//
//detvet:holds exec.mu
func (t *thread) setMarkFor(reader api.ThreadID, mark int) {
	if t.marks == nil {
		t.marks = new([]int)
	}
	if int(reader) >= len(*t.marks) {
		grown := make([]int, len(t.exec.threads))
		copy(grown, *t.marks)
		*t.marks = grown
	}
	(*t.marks)[reader] = mark
}

// forgetMarks drops every reader's mark on t.slicePtrs. The two sites that
// rewrite a list other than by appending to it call this in the same breath;
// the table's memory is kept for the marks that will be recorded next.
func (t *thread) forgetMarks() {
	if t.marks != nil {
		clear(*t.marks)
	}
}

// applyNow writes an ordered slice list into t's space at once. One slice's
// runs are disjoint (slice-end diffing emits gap-separated runs per page); two
// or more go through a write plan, which copies each covered byte once, at its
// last writer's value in list order, and counts what a later slice covered.
// Nobody observes the states in between: t is between slices, or blocked.
func (t *thread) applyNow(slices []*slicestore.Slice) {
	if len(slices) == 1 {
		t.space.ApplyRuns(slices[0].Mods)
		return
	}
	ts := t.tb.Now()
	plan := mem.BuildPlanFunc(len(slices), func(i int) []mem.Run { return slices[i].Mods })
	t.st.BytesCoalescedAway += plan.InputBytes - plan.UniqueBytes
	t.tb.Span(trace.PhasePlanBuild, ts)
	t.space.ApplyPlan(plan)
	plan.Release()
}

// sameSlices reports whether two collected lists are element-wise identical,
// by pointer (slices are immutable and interned in the slice store): a
// windowed collection against the reference scan.
func sameSlices(a, b []*slicestore.Slice) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// applySlices applies propagated slices to t's memory. With lazy writes they
// are pended per page as references (§4.5): no plan, no byte copied. Without,
// they are applied at once (applyNow) and charged per-slice ApplyCost,
// whatever was copied. prelock marks a prelock pre-merge, whose cost overlaps
// the lock holder's critical section.
//
// The slices themselves are immutable and the target space is t's own, so
// the caller need not hold the monitor — unless t is a *blocked* thread
// being pre-merged into by somebody else, in which case the caller must hold
// exec.mu (which is what proves t stays blocked).
//
// Applied runs are deliberately invisible to the space's sub-page dirty
// tracking (every apply path bypasses the store hooks): they run between the
// target thread's slices — its snapshots are empty, or, with lazy writes,
// the pended runs flush before the page's next snapshot — so the snapshot
// baseline of the following slice already contains them. Were they marked
// dirty, the next slice-end diff would merely scan bytes that equal the
// snapshot; by staying unmarked they keep the extent set the exact write-set
// of the slice (§4.3's "must not be monitored as local modifications").
func (t *thread) applySlices(slices []*slicestore.Slice, prelock bool) {
	if len(slices) == 0 {
		return
	}
	ts := t.tb.Now()
	if t.pending != nil {
		t.pendSlices(slices)
	} else {
		t.applyNow(slices)
	}
	for _, s := range slices {
		if t.pending == nil {
			t.vt += vtime.ApplyCost(uint64(len(s.Mods)), s.Bytes)
		}
		t.st.SlicesPropagated++
		t.st.BytesPropagated += s.Bytes
		if prelock {
			t.st.PrelockBytes += s.Bytes
		}
	}
	phase := trace.PhaseApply
	if prelock {
		phase = trace.PhasePremerge
	}
	t.tb.Span(phase, ts)
}

// acquireCollectLocked is acquireFromCollectLocked against internal variable
// sv's last release, if it has one.
//
//detvet:holds exec.mu
func (t *thread) acquireCollectLocked(sv *syncVar) []*slicestore.Slice {
	if sv.lastTid < 0 {
		return nil
	}
	return t.acquireFromCollectLocked(sv.lastTid, sv.lastTime, sv.lastVT)
}

// acquireFromCollectLocked performs the monitor half of an acquire against a
// release record — thread fromTid's, at vector clock upper and virtual time
// releaseVT: collect the slices that happen-before the release, publish them
// on t's slice-pointer list, and join the vector clocks (§4.1, §4.2). The
// thread's virtual time also joins the release's virtual time: Kendo ordered
// this acquire after that release, so in a parallel execution the acquirer
// could not have proceeded earlier.
//
// The returned slices still have to be applied to t's memory — the caller
// does that via applySlices once it has released the monitor. Deferring the
// application past the list append is sound: propagation exchanges slice
// pointers, never memory contents, so other threads collecting from t are
// unaffected by when t's private space absorbs the runs; and t applies them
// before returning to application code, so t itself never reads memory
// missing an acquired update.
//
//detvet:holds exec.mu
func (t *thread) acquireFromCollectLocked(fromTid int32, upper vclock.VC, releaseVT vtime.Time) []*slicestore.Slice {
	t.vt = vtime.Max(t.vt, releaseVT)
	var slices []*slicestore.Slice
	if fromTid != int32(t.id) {
		from := t.exec.threads[fromTid]
		slices = t.collectLocked(from, upper)
		t.slicePtrs = append(t.slicePtrs, slices...)
	}
	t.vtime = t.vtime.Join(upper)
	clear(t.preMerged)
	return slices
}

// prepareAcquireLocked performs, on the waker's side, the complete acquire a
// blocked thread will need when it wakes owning synchronization variable sv:
// the handoff virtual-time catch-up, the pending cond-signal acquire (if the
// sleeper was moved from a condition queue onto the mutex queue), and the
// mutex acquire itself. The caller holds the deterministic turn and the
// monitor, and w is provably blocked, so every read is deterministic and
// every mutation of w is safe. The returned event carries w's new virtual
// time and the collected slices; applying them to w's private memory is the
// only work left for w itself, off the monitor (§4.3's propagation with the
// collect and apply halves on opposite sides of the wakeup).
//
//detvet:holds exec.mu
func (e *exec) prepareAcquireLocked(w *thread, sv *syncVar, handoffVT vtime.Time) wakeEvent {
	w.vt = vtime.Max(w.vt, handoffVT) + vtime.LockHandoff
	var slices []*slicestore.Slice
	if sig := w.pendingSignal; sig != nil {
		w.pendingSignal = nil
		slices = w.acquireFromCollectLocked(sig.tid, sig.v, sig.vt)
	}
	if acq := w.acquireCollectLocked(sv); len(slices) == 0 {
		slices = acq // the usual case: no signal acquire, nothing to copy
	} else {
		slices = append(slices, acq...)
	}
	return wakeEvent{vt: w.vt, slices: slices}
}

// premergeLocked applies slices to thread w as a prelock pre-merge
// (applySlices), remembering them in w.preMerged so the eventual acquire
// skips them. w is either the calling thread (queueing on a held lock) or a
// provably blocked waiter mutated under the monitor.
func (w *thread) premergeLocked(slices []*slicestore.Slice) {
	if len(slices) == 0 {
		return
	}
	if w.preMerged == nil {
		w.preMerged = make(map[*slicestore.Slice]bool, len(slices))
	}
	for _, s := range slices {
		w.preMerged[s] = true
	}
	w.applySlices(slices, true)
	w.slicePtrs = append(w.slicePtrs, slices...)
}

// prelockLocked performs the prelock pre-merge (§4.5): while blocked on a
// held lock, the thread already knows its eventual acquire must happen-after
// the holder's *current* vector time (read deterministically under the
// turn), so it can merge those updates now, overlapping the holder's
// critical section. The cost lands on this thread's virtual clock while it
// is blocked, and is absorbed by the max() with the release time at the
// eventual acquire — exactly the "propagation moved into parallel mode"
// effect the paper measures at ~80%.
//
//detvet:holds exec.mu
func (t *thread) prelockLocked(sv *syncVar) {
	if !t.exec.opts.Prelock || sv.owner < 0 {
		return
	}
	holder := t.exec.threads[sv.owner]
	// The holder's clock itself, not a clone: collectLocked only compares
	// against upper and drops it, and the turn is held, so the holder cannot
	// Join or Bump before the call returns. A caller that parked upper
	// anywhere would need the clone back.
	t.premergeLocked(t.collectLocked(holder, holder.vtime))
}

// prelockReleaseLocked continues the prelock pre-merge while a thread stays
// blocked: each time the contended variable is released to somebody else,
// the still-queued waiters merge the newly committed updates immediately —
// in parallel with the new holder's critical section. Only the updates of
// the waiter's *immediately preceding* release remain for the eventual
// acquire, which is how the paper moves ~80% of propagation work off the
// critical path (§4.5). The waiter is provably blocked, so its state may be
// mutated under the monitor (as in the barrier merge).
//
//detvet:holds exec.mu
func (e *exec) prelockReleaseLocked(sv *syncVar, releaser *thread) {
	if !e.opts.Prelock {
		return
	}
	for _, wid := range sv.lockQ.items() {
		w := e.threads[wid]
		w.premergeLocked(w.collectLocked(releaser, sv.lastTime))
	}
}
