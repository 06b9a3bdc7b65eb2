package core

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"rfdet/internal/api"
	"rfdet/internal/trace"
)

// phaseProg exercises every phase source: contended locks (turn waits,
// monitor waits, diffs, applies, premerges, blocks), a barrier (barrier-merge
// applies into the leader), cond wait/signal, atomics, and enough written
// pages that plan building kicks in.
func phaseProg(th api.Thread) {
	pages := th.Malloc(8 * 4096)
	ctr := th.Malloc(8)
	mu, bar := api.Addr(64), api.Addr(192)
	var ids []api.ThreadID
	for w := 0; w < 4; w++ {
		me := uint64(w)
		ids = append(ids, th.Spawn(func(c api.Thread) {
			for round := 0; round < 6; round++ {
				c.Lock(mu)
				for p := 0; p < 8; p++ {
					a := pages + api.Addr(uint64(p)*4096+8*me)
					c.Store64(a, c.Load64(a)+me+uint64(round)+1)
				}
				c.Unlock(mu)
				c.AtomicAdd64(ctr, 1)
				c.Barrier(bar, 4)
			}
		}))
	}
	for _, id := range ids {
		th.Join(id)
	}
	th.Observe(th.Load64(ctr), th.Load64(pages))
}

// TestPhaseTotalsReconcileWithStats pins the phase tracer's accounting
// contract: the turn-wait and monitor-wait span counts equal the Stats
// counters of the same events, and every host-time site records its span —
// the tracer is the runtime's only host-time instrument, so a dropped span
// site would leave diff or apply time unmeasured.
func TestPhaseTotalsReconcileWithStats(t *testing.T) {
	opts := DefaultOptions()
	opts.PhaseTrace = true
	rep, err := New(opts).Run(phaseProg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phases == nil {
		t.Fatal("PhaseTrace did not produce a phase report")
	}
	if len(rep.Phases.Threads) != rep.Threads {
		t.Fatalf("phase report has %d threads, execution had %d",
			len(rep.Phases.Threads), rep.Threads)
	}
	tot := rep.Phases.PhaseTotals()
	n := rep.Phases.PhaseCounts()
	if tot[trace.PhaseDiff] <= 0 {
		t.Fatalf("diff span total %v, want > 0", tot[trace.PhaseDiff])
	}
	if got := tot[trace.PhaseApply] + tot[trace.PhasePremerge]; got <= 0 {
		t.Fatalf("apply+premerge span total %v, want > 0", got)
	}
	if n[trace.PhaseTurnWait] != rep.Stats.TurnWaits {
		t.Fatalf("turn-wait span count %d != Stats.TurnWaits %d",
			n[trace.PhaseTurnWait], rep.Stats.TurnWaits)
	}
	if n[trace.PhaseMonitorWait] != rep.Stats.MonitorAcquires {
		t.Fatalf("monitor-wait span count %d != Stats.MonitorAcquires %d",
			n[trace.PhaseMonitorWait], rep.Stats.MonitorAcquires)
	}
	// The program blocks (contended locks, barriers, joins) and diffs; the
	// corresponding spans must actually be present.
	for _, p := range []trace.Phase{trace.PhaseBlock, trace.PhaseDiff, trace.PhaseApply} {
		if n[p] == 0 {
			t.Fatalf("no %s spans recorded", p)
		}
	}
	// Spans recorded on a blocked thread's behalf must nest inside its block
	// span; the Chrome export's validator checks exactly that invariant.
	var buf bytes.Buffer
	if err := rep.Phases.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var sum bytes.Buffer
	if err := rep.Phases.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
}

// TestPhaseTraceIsObservational pins the hard constraint: enabling phase
// tracing changes nothing on the determinism surface — output hash, virtual
// time, observations, deterministic trace, and every deterministic Stats
// counter are identical with tracing on and off.
func TestPhaseTraceIsObservational(t *testing.T) {
	run := func(phase bool) (*api.Report, *Trace) {
		opts := DefaultOptions()
		opts.Trace = true
		opts.PhaseTrace = phase
		rep, tr, err := New(opts).RunTraced(phaseProg)
		if err != nil {
			t.Fatal(err)
		}
		return rep, tr
	}
	repOff, trOff := run(false)
	repOn, trOn := run(true)
	if repOff.Phases != nil {
		t.Fatal("phase report present with tracing off")
	}
	if repOn.Phases == nil {
		t.Fatal("phase report missing with tracing on")
	}
	if repOff.OutputHash != repOn.OutputHash {
		t.Fatalf("output hash changed: %#x != %#x", repOff.OutputHash, repOn.OutputHash)
	}
	if repOff.VirtualTime != repOn.VirtualTime {
		t.Fatalf("virtual time changed: %d != %d", repOff.VirtualTime, repOn.VirtualTime)
	}
	if trOff.String() != trOn.String() {
		t.Fatalf("deterministic trace changed:\n--- off ---\n%s\n--- on ---\n%s", trOff, trOn)
	}
	// Deterministic counters must be unaffected; the host fields vary between
	// any two runs, traced or not.
	if offSt, onSt := repOff.Stats.Deterministic(), repOn.Stats.Deterministic(); offSt != onSt {
		t.Fatalf("stats changed with phase tracing:\noff: %+v\non:  %+v", offSt, onSt)
	}
}

// TestPhaseTraceMarksCrossLink checks the deterministic sync tracer's events
// appear in the phase timeline as instant marks: every traced operation of a
// thread has a corresponding (op, addr) mark on that thread's row.
func TestPhaseTraceMarksCrossLink(t *testing.T) {
	opts := DefaultOptions()
	opts.Trace = true
	opts.PhaseTrace = true
	rep, tr, err := New(opts).RunTraced(phaseProg)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		tid  int
		op   string
		addr uint64
	}
	marks := map[key]int{}
	nmarks := 0
	for _, tl := range rep.Phases.Threads {
		for _, m := range tl.Marks {
			marks[key{tl.ID, m.Op, m.Addr}]++
			nmarks++
		}
	}
	if nmarks != len(tr.Lines) {
		t.Fatalf("%d phase-timeline marks, %d deterministic trace events", nmarks, len(tr.Lines))
	}
	// Trace lines look like "000001 t2  lock      0x000040 kendo=...".
	for _, line := range tr.Lines {
		f := strings.Fields(line)
		tid, err := strconv.Atoi(strings.TrimPrefix(f[1], "t"))
		if err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		addr, err := strconv.ParseUint(f[3], 0, 64)
		if err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		k := key{tid, f[2], addr}
		if marks[k] == 0 {
			t.Fatalf("traced event %q has no phase-timeline mark", line)
		}
		marks[k]--
	}
}

// TestPhaseTraceDisabledHasNoReport checks the default-off path.
func TestPhaseTraceDisabledHasNoReport(t *testing.T) {
	rep, err := New(DefaultOptions()).Run(phaseProg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phases != nil {
		t.Fatal("phase report present without PhaseTrace")
	}
}
