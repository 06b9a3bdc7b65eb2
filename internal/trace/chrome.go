package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Chrome-trace / Perfetto JSON export. The format is the Trace Event
// Format's JSON object form: {"traceEvents": [...]}. Phase spans become
// complete ("X") events, cross-linked sync operations become thread-scoped
// instant ("i") events, and thread rows are named with metadata ("M")
// events. Timestamps are microseconds since the collector epoch, as the
// format requires. Load the file in ui.perfetto.dev or chrome://tracing.

// chromeEvent is one Trace Event Format entry. Fields cover the subset the
// exporter emits; Dur and Scope are omitted when empty.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChrome writes the report as Chrome-trace JSON. A nil report (tracing
// disabled) is an error.
func (r *Report) WriteChrome(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("trace: no phase report to export (tracing disabled?)")
	}
	f := chromeFile{DisplayTimeUnit: "ns"}
	for _, tl := range r.Threads {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: tl.ID,
			Args: map[string]any{"name": fmt.Sprintf("thread %d", tl.ID)},
		})
		for _, s := range tl.Spans {
			ev := chromeEvent{
				Name: s.Phase.String(), Cat: "phase", Ph: "X",
				Ts: usec(s.Start), Dur: usec(s.Dur), Pid: 0, Tid: tl.ID,
			}
			if s.Detail != "" {
				ev.Args = map[string]any{"detail": s.Detail}
			}
			f.TraceEvents = append(f.TraceEvents, ev)
		}
		for _, m := range tl.Marks {
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name: m.Op, Cat: "sync", Ph: "i", Ts: usec(m.At),
				Pid: 0, Tid: tl.ID, Scope: "t",
				Args: map[string]any{"addr": fmt.Sprintf("%#x", m.Addr)},
			})
		}
	}
	return json.NewEncoder(w).Encode(&f)
}

// ValidateChrome checks an exported Chrome-trace JSON document: it must
// parse, contain at least one duration event, have non-negative timestamps
// and durations, and the duration events of each thread must be well
// nested — sorted by start, each event either begins after the previous one
// ends or lies entirely within it. This is the structural invariant the
// phase recorder guarantees (work done on a blocked thread's behalf nests
// inside its block span), and what keeps the Perfetto rendering sane.
func ValidateChrome(data []byte) error {
	var f chromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("trace: invalid JSON: %w", err)
	}
	byTid := map[int][]chromeEvent{}
	nx := 0
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.Ts < 0 || ev.Dur < 0 {
				return fmt.Errorf("trace: event %q on tid %d has negative ts/dur (%v, %v)",
					ev.Name, ev.Tid, ev.Ts, ev.Dur)
			}
			byTid[ev.Tid] = append(byTid[ev.Tid], ev)
			nx++
		case "i":
			if ev.Ts < 0 {
				return fmt.Errorf("trace: instant %q on tid %d has negative ts", ev.Name, ev.Tid)
			}
		case "M":
			// metadata, nothing to check
		default:
			return fmt.Errorf("trace: unexpected event phase %q", ev.Ph)
		}
	}
	if nx == 0 {
		return fmt.Errorf("trace: no duration events")
	}
	for tid, evs := range byTid {
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].Ts != evs[j].Ts {
				return evs[i].Ts < evs[j].Ts
			}
			return evs[i].Dur > evs[j].Dur
		})
		// open holds the end timestamps of enclosing spans. Both tests allow
		// 2 ns for the export's float microseconds: a span's ts+dur can land
		// just past the next span's ts when the two touch.
		const slack = 0.002
		var open []float64
		for i, ev := range evs {
			end := ev.Ts + ev.Dur
			for len(open) > 0 && ev.Ts+slack >= open[len(open)-1] {
				open = open[:len(open)-1]
			}
			if len(open) > 0 && end > open[len(open)-1]+slack {
				return fmt.Errorf("trace: tid %d event %d (%q @%v+%v) overlaps its enclosing span ending at %v",
					tid, i, ev.Name, ev.Ts, ev.Dur, open[len(open)-1])
			}
			open = append(open, end)
		}
	}
	return nil
}

// WriteSummary renders the per-phase accounting table: for each thread, the
// time spent in every phase, plus derived user compute (lifetime minus the
// union of recorded spans) — the Table-1-style breakdown of where a DMT
// thread's wall time goes.
func (r *Report) WriteSummary(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("trace: no phase report (tracing disabled?)")
	}
	fmt.Fprintf(w, "%-8s %10s %10s %10s %10s %10s %10s %10s %10s %10s %10s %10s\n",
		"thread", "turn-us", "mon-us", "diff-us", "plan-us", "apply-us",
		"premrg-us", "lazy-us", "block-us", "drain-us", "user-us", "wall-us")
	var agg [NumPhases]time.Duration
	var aggUser, aggWall time.Duration
	for _, tl := range r.Threads {
		var tot [NumPhases]time.Duration
		for _, s := range tl.Spans {
			if s.Phase < NumPhases {
				tot[s.Phase] += time.Duration(s.Dur)
			}
		}
		wall := time.Duration(0)
		if tl.End >= tl.Start && tl.Start >= 0 {
			wall = time.Duration(tl.End - tl.Start)
		}
		user := wall - unionWithin(tl.Spans, tl.Start, tl.End)
		fmt.Fprintf(w, "%-8d %10d %10d %10d %10d %10d %10d %10d %10d %10d %10d %10d\n",
			tl.ID,
			tot[PhaseTurnWait].Microseconds(), tot[PhaseMonitorWait].Microseconds(),
			tot[PhaseDiff].Microseconds(), tot[PhasePlanBuild].Microseconds(),
			tot[PhaseApply].Microseconds(), tot[PhasePremerge].Microseconds(),
			tot[PhaseLazyFlush].Microseconds(), tot[PhaseBlock].Microseconds(),
			tot[PhaseDrain].Microseconds(), user.Microseconds(), wall.Microseconds())
		for p := Phase(0); p < NumPhases; p++ {
			agg[p] += tot[p]
		}
		aggUser += user
		aggWall += wall
	}
	fmt.Fprintf(w, "%-8s %10d %10d %10d %10d %10d %10d %10d %10d %10d %10d %10d\n",
		"total",
		agg[PhaseTurnWait].Microseconds(), agg[PhaseMonitorWait].Microseconds(),
		agg[PhaseDiff].Microseconds(), agg[PhasePlanBuild].Microseconds(),
		agg[PhaseApply].Microseconds(), agg[PhasePremerge].Microseconds(),
		agg[PhaseLazyFlush].Microseconds(), agg[PhaseBlock].Microseconds(),
		agg[PhaseDrain].Microseconds(), aggUser.Microseconds(), aggWall.Microseconds())
	return nil
}
