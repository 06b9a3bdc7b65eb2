package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"rfdet/internal/api"
	"rfdet/internal/vclock"
	"rfdet/internal/vtime"
)

// Tracing records the deterministic synchronization history of an
// execution: one line per synchronization operation, with the thread,
// operation, Kendo clock and vector clock. Because the clocks and the
// propagation decisions are all deterministic, the entire trace must be
// byte-identical across runs — a much stronger observable than the output
// hash, and the basis for debugging ("what was the schedule?") that the
// paper's introduction motivates.
//
// Every event is recorded by its own thread's goroutine — in pass, in block
// after the wake, in Wait — onto that thread's event list, so recording
// takes no lock. Wake-side records happen off the monitor, so the order of
// different threads' records is host scheduling; instead every event
// carries a deterministic key — the thread's virtual time, thread ID, and
// index in its thread's list — and the trace is rendered in key order.
// Virtual time respects happens-before (an acquire's vt is max()ed past its
// release's), so the rendered order is a deterministic linearization
// consistent with each thread's program order and with synchronization
// causality.
//
// Enable with Options.Trace; fetch the trace through RunTraced.

// traceEvent is one synchronization operation.
type traceEvent struct {
	vt    vtime.Time // deterministic primary sort key
	tid   api.ThreadID
	seq   int // index in its thread's list, breaks vt ties within a thread
	op    string
	addr  api.Addr
	clock uint64
	vtime vclock.VC
}

// syncEvent records a synchronization operation on both observability
// surfaces: the deterministic trace (Options.Trace, byte-identical across
// runs) and, cross-linked into the phase timeline, a wall-clock instant
// mark (Options.PhaseTrace). Both sides no-op when their option is off.
func (t *thread) syncEvent(op string, addr api.Addr) {
	if t.exec.opts.Trace {
		t.trace = append(t.trace, traceEvent{
			vt:    t.vt,
			tid:   t.id,
			seq:   len(t.trace),
			op:    op,
			addr:  addr,
			clock: t.proc.Clock() + uint64(t.lag),
			vtime: t.vtime.Clone(),
		})
	}
	t.tb.Mark(op, uint64(addr))
}

// Trace is the rendered deterministic schedule of one execution.
type Trace struct {
	Lines []string
}

// String joins the trace lines.
func (tr *Trace) String() string { return strings.Join(tr.Lines, "\n") }

// WriteTo writes the trace to w.
func (tr *Trace) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, l := range tr.Lines {
		m, err := fmt.Fprintln(w, l)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// renderTraceLocked sorts every thread's events by their deterministic keys
// and converts them to stable text lines. It runs after every thread has
// exited.
//
//detvet:holds exec.mu
func (e *exec) renderTraceLocked() *Trace {
	var events []traceEvent
	for _, t := range e.threads {
		events = append(events, t.trace...)
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.vt != b.vt {
			return a.vt < b.vt
		}
		if a.tid != b.tid {
			return a.tid < b.tid
		}
		return a.seq < b.seq
	})
	out := &Trace{Lines: make([]string, 0, len(events))}
	for i, e := range events {
		out.Lines = append(out.Lines, fmt.Sprintf("%06d t%-2d %-9s %#08x kendo=%-8d vc=%s",
			i, e.tid, e.op, uint64(e.addr), e.clock, e.vtime))
	}
	return out
}
