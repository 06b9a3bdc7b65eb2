// Package trace is the phase-level observability layer for the DMT
// runtimes: each logical thread records wall-clock spans for its execution
// phases — deterministic-turn wait, global-monitor wait, slice diffing,
// write-plan building, propagation apply, prelock pre-merge, lazy flushes
// and blocked time — into a private append-only buffer, and the
// deterministic synchronization tracer's events are cross-linked into the
// same timeline as instant marks.
//
// Everything here is observational: wall-clock timestamps are host noise
// and must never feed output hashes, virtual times or the deterministic
// trace. The runtime only *reads* the clock on paths that already read it
// for the Stats nanos counters, and a disabled collector (nil *Collector /
// nil *ThreadBuf) reduces every recording call to a nil check, so tracing
// off costs nothing measurable.
//
// Concurrency: a ThreadBuf is appended to by the goroutine running its
// thread, or — for work another thread performs on its behalf while it is
// provably blocked (prelock pre-merge, barrier merge) — by that other
// goroutine under the runtime's monitor. The wake channel's happens-before
// edge serializes those appends against the owner's, exactly the argument
// the runtimes already make for the per-thread Stats. No locks are taken on
// any hot path; the collector's mutex guards only thread registration.
package trace

import (
	"sort"
	"sync"
	"time"
)

// Phase identifies one execution-phase category of a DMT thread. Time not
// covered by any span is user compute by definition.
type Phase uint8

// Execution phases.
const (
	// PhaseTurnWait is time spent waiting for the deterministic Kendo turn
	// before a synchronization operation (only recorded when the turn was
	// actually contended, so span count == Stats.TurnWaits).
	PhaseTurnWait Phase = iota
	// PhaseMonitorWait is time spent acquiring the runtime's global monitor
	// (span count == Stats.MonitorAcquires).
	PhaseMonitorWait
	// PhaseDiff is slice-end page diffing (span total == Stats.DiffNanos).
	PhaseDiff
	// PhasePlanBuild is coalesced write-plan construction. Plan builds run
	// inside an apply or alongside a premerge; their time is part of the
	// enclosing region's accounting, broken out for visibility.
	PhasePlanBuild
	// PhaseApply is propagation apply at an acquire or barrier merge
	// (PhaseApply + PhasePremerge span totals == Stats.ApplyNanos).
	PhaseApply
	// PhasePremerge is prelock pre-merge application — propagation work that
	// overlaps a lock holder's critical section (§4.5). Premerge spans for a
	// blocked waiter nest inside its PhaseBlock span.
	PhasePremerge
	// PhaseLazyFlush is lazily pended modification flushing on first access.
	PhaseLazyFlush
	// PhaseBlock is time blocked on a synchronization variable (lock grant,
	// cond wait, barrier, join).
	PhaseBlock
	// NumPhases bounds the phase enum; not a phase.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"turn-wait", "monitor-wait", "diff", "plan-build",
	"apply", "premerge", "lazy-flush", "block",
}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Span is one recorded phase interval. Start is nanoseconds since the
// collector epoch; Dur is the wall-clock duration in nanoseconds.
type Span struct {
	Phase  Phase
	Start  int64
	Dur    int64
	Detail string
}

// Mark is one cross-linked synchronization event: the deterministic sync
// tracer's (op, addr) pair stamped with the wall-clock instant at which the
// operation was recorded.
type Mark struct {
	Op   string
	Addr uint64
	At   int64
}

// ThreadBuf is one thread's append-only phase buffer. A nil ThreadBuf is a
// valid, permanently disabled buffer: every method no-ops.
type ThreadBuf struct {
	col   *Collector
	id    int
	start int64
	end   int64
	spans []Span
	marks []Mark
}

// Collector owns the per-thread buffers of one execution.
type Collector struct {
	epoch time.Time

	mu   sync.Mutex
	bufs []*ThreadBuf
}

// NewCollector returns an enabled collector with its epoch at now.
func NewCollector() *Collector {
	return &Collector{epoch: time.Now()}
}

// NewThread registers a thread and returns its buffer. On a nil collector it
// returns nil — the disabled buffer.
func (c *Collector) NewThread(id int) *ThreadBuf {
	if c == nil {
		return nil
	}
	b := &ThreadBuf{col: c, id: id, start: -1, end: -1}
	c.mu.Lock()
	c.bufs = append(c.bufs, b)
	c.mu.Unlock()
	return b
}

// Now returns nanoseconds since the collector epoch, or 0 when disabled.
// Hot paths call Now once before a potentially blocking step and Span after
// it; with tracing off both are single nil checks.
func (b *ThreadBuf) Now() int64 {
	if b == nil {
		return 0
	}
	return int64(time.Since(b.col.epoch))
}

// Begin marks the thread's lifetime start.
func (b *ThreadBuf) Begin() {
	if b == nil {
		return
	}
	b.start = b.Now()
}

// Finish marks the thread's lifetime end.
func (b *ThreadBuf) Finish() {
	if b == nil {
		return
	}
	b.end = b.Now()
}

// Span records a phase interval that started at the epoch-relative
// nanosecond start and ends now.
func (b *ThreadBuf) Span(p Phase, start int64) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, Span{Phase: p, Start: start, Dur: b.Now() - start})
}

// SpanDetail is Span with a free-form annotation (e.g. the block site).
func (b *ThreadBuf) SpanDetail(p Phase, start int64, detail string) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, Span{Phase: p, Start: start, Dur: b.Now() - start, Detail: detail})
}

// SpanDur records a phase interval with an externally measured duration.
// The runtime uses this on paths that already time themselves for the Stats
// nanos counters (DiffNanos, ApplyNanos), so the recorded span totals
// reconcile with those counters exactly, not approximately.
func (b *ThreadBuf) SpanDur(p Phase, start time.Time, dur time.Duration) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, Span{Phase: p, Start: int64(start.Sub(b.col.epoch)), Dur: int64(dur)})
}

// Mark records a cross-linked synchronization event at the current instant.
func (b *ThreadBuf) Mark(op string, addr uint64) {
	if b == nil {
		return
	}
	b.marks = append(b.marks, Mark{Op: op, Addr: addr, At: b.Now()})
}

// Timeline is one thread's rendered phase history.
type Timeline struct {
	ID         int
	Start, End int64
	Spans      []Span
	Marks      []Mark
}

// Report is the rendered phase-level observability data of one execution.
// It lives on api.Report.Phases and is strictly observational: nothing in
// it participates in output hashing or virtual time.
type Report struct {
	Threads []Timeline
}

// Render snapshots the collector into a Report. Call only after the
// execution has quiesced (all thread goroutines joined).
func (c *Collector) Render() *Report {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := &Report{Threads: make([]Timeline, 0, len(c.bufs))}
	for _, b := range c.bufs {
		tl := Timeline{ID: b.id, Start: b.start, End: b.end,
			Spans: append([]Span(nil), b.spans...),
			Marks: append([]Mark(nil), b.marks...)}
		sort.SliceStable(tl.Spans, func(i, j int) bool {
			a, bb := tl.Spans[i], tl.Spans[j]
			if a.Start != bb.Start {
				return a.Start < bb.Start
			}
			return a.Dur > bb.Dur // outer (longer) span first at equal starts
		})
		r.Threads = append(r.Threads, tl)
	}
	sort.Slice(r.Threads, func(i, j int) bool { return r.Threads[i].ID < r.Threads[j].ID })
	return r
}

// PhaseTotals sums span durations by phase across all threads.
func (r *Report) PhaseTotals() [NumPhases]time.Duration {
	var tot [NumPhases]time.Duration
	if r == nil {
		return tot
	}
	for _, tl := range r.Threads {
		for _, s := range tl.Spans {
			if s.Phase < NumPhases {
				tot[s.Phase] += time.Duration(s.Dur)
			}
		}
	}
	return tot
}

// PhaseCounts counts spans by phase across all threads.
func (r *Report) PhaseCounts() [NumPhases]uint64 {
	var n [NumPhases]uint64
	if r == nil {
		return n
	}
	for _, tl := range r.Threads {
		for _, s := range tl.Spans {
			if s.Phase < NumPhases {
				n[s.Phase]++
			}
		}
	}
	return n
}

// PerOp divides each phase's total across n operations, yielding the average
// wall-clock cost one operation (e.g. one served request) pays in that phase.
// This is the per-request breakdown the replica harness reports: with every
// span attributed to a phase, the sum over phases of PerOp values is the
// non-user runtime cost per operation. n = 0 returns zeros.
func (r *Report) PerOp(n uint64) [NumPhases]time.Duration {
	var per [NumPhases]time.Duration
	if r == nil || n == 0 {
		return per
	}
	tot := r.PhaseTotals()
	for p := range tot {
		per[p] = tot[p] / time.Duration(n)
	}
	return per
}

// Percentiles are nearest-rank latency percentiles over one phase's span
// durations — the per-op distribution view that complements PerOp's means.
type Percentiles struct {
	P50, P95, P99 time.Duration
}

// PhasePercentiles computes nearest-rank p50/p95/p99 span-duration
// percentiles per phase across all threads. Phases with no spans yield
// zeros. Like everything in this package the result is wall-clock host
// noise: render it, never hash it.
func (r *Report) PhasePercentiles() [NumPhases]Percentiles {
	var out [NumPhases]Percentiles
	if r == nil {
		return out
	}
	var durs [NumPhases][]int64
	for _, tl := range r.Threads {
		for _, s := range tl.Spans {
			if s.Phase < NumPhases {
				durs[s.Phase] = append(durs[s.Phase], s.Dur)
			}
		}
	}
	for p := range durs {
		d := durs[p]
		if len(d) == 0 {
			continue
		}
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		out[p] = Percentiles{
			P50: time.Duration(d[nearestRank(len(d), 50)]),
			P95: time.Duration(d[nearestRank(len(d), 95)]),
			P99: time.Duration(d[nearestRank(len(d), 99)]),
		}
	}
	return out
}

// nearestRank returns the index of the pct-th nearest-rank percentile in a
// sorted list of n > 0 elements: ceil(n*pct/100), clamped to [1, n], as a
// zero-based index.
func nearestRank(n, pct int) int {
	i := (n*pct + 99) / 100
	if i < 1 {
		i = 1
	}
	if i > n {
		i = n
	}
	return i - 1
}

// UserTime estimates user compute: the sum over threads of lifetime not
// covered by any recorded span. Because premerge, plan-build and
// barrier-merge spans nest inside other spans (a waiter's block, an apply),
// the subtraction uses the union of intervals, not the sum of durations.
func (r *Report) UserTime() time.Duration {
	if r == nil {
		return 0
	}
	var user time.Duration
	for _, tl := range r.Threads {
		if tl.Start < 0 || tl.End < tl.Start {
			continue
		}
		user += time.Duration(tl.End-tl.Start) - unionWithin(tl.Spans, tl.Start, tl.End)
	}
	return user
}

// unionWithin returns the total length of the union of the spans' intervals
// clipped to [lo, hi]. Spans is sorted by Start (Render guarantees it).
func unionWithin(spans []Span, lo, hi int64) time.Duration {
	var total int64
	curLo, curHi := int64(0), int64(-1) // empty current interval
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, s := range spans {
		a, b := s.Start, s.Start+s.Dur
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b <= a {
			continue
		}
		if curHi < curLo || a > curHi { // disjoint from current
			flush()
			curLo, curHi = a, b
			continue
		}
		if b > curHi {
			curHi = b
		}
	}
	flush()
	return time.Duration(total)
}
