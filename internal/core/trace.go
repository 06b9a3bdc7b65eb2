package core

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

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
// Events are not ordered by arrival: wake-side records happen off the
// monitor, so their arrival order against other threads' records is host
// scheduling. Instead every event carries a deterministic key — the
// thread's virtual time, thread ID, and per-thread sequence number — and
// the trace is rendered in key order. Virtual time respects happens-before
// (an acquire's vt is max()ed past its release's), so the rendered order is
// a deterministic linearization consistent with each thread's program
// order and with synchronization causality.
//
// Enable with Options.Trace; fetch the trace through RunTraced.

// traceEvent is one synchronization operation.
type traceEvent struct {
	vt    vtime.Time // deterministic primary sort key
	tid   api.ThreadID
	seq   uint64 // per-thread sequence, breaks vt ties within a thread
	op    string
	addr  api.Addr
	clock uint64
	vtime vclock.VC
}

// tracer accumulates events; its mutex only guards the append, never the
// order.
type tracer struct {
	//detvet:lockorder 70
	mu     sync.Mutex   //detvet:nativesync guards only the append; event order is decided by the monitor.
	events []traceEvent //detvet:guardedby mu
}

func (tr *tracer) record(t *thread, op string, addr api.Addr) {
	if tr == nil {
		return
	}
	ev := traceEvent{
		vt:    t.vt,
		tid:   t.id,
		seq:   t.traceSeq,
		op:    op,
		addr:  addr,
		clock: t.proc.Clock() + uint64(t.lag),
		vtime: t.vtime.Clone(),
	}
	t.traceSeq++
	tr.mu.Lock()
	tr.events = append(tr.events, ev)
	tr.mu.Unlock()
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

// render sorts the raw events by their deterministic keys and converts them
// to stable text lines.
func (tr *tracer) render() *Trace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	sort.Slice(tr.events, func(i, j int) bool {
		a, b := tr.events[i], tr.events[j]
		if a.vt != b.vt {
			return a.vt < b.vt
		}
		if a.tid != b.tid {
			return a.tid < b.tid
		}
		return a.seq < b.seq
	})
	out := &Trace{Lines: make([]string, 0, len(tr.events))}
	for i, e := range tr.events {
		out.Lines = append(out.Lines, fmt.Sprintf("%06d t%-2d %-9s %#08x kendo=%-8d vc=%s",
			i, e.tid, e.op, uint64(e.addr), e.clock, e.vtime))
	}
	return out
}
