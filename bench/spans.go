package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"rfdet/internal/stats"
)

// span is one benchmark-side interval around a call into the system: a
// Runtime.Run, a fingerprint check or a layer driver. Start is nanoseconds
// since the recorder's epoch; Parent indexes the enclosing span, -1 at the
// root. Spans inside the runtime are Options.PhaseTrace's and are read from
// Report.Phases, not recorded here.
type span struct {
	Name     string
	Workload string
	Start    int64
	Dur      int64
	Parent   int
}

// recorder keeps spans in memory until the benchmark ends. It belongs to the
// one driver goroutine, so the open spans form a stack.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder {
	return &recorder{epoch: stats.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name, workload string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.open = append(r.open, id)
	r.spans = append(r.spans, span{Name: name, Workload: workload, Parent: parent,
		Start: int64(stats.Since(r.epoch))})
	return id
}

// end closes the innermost open span, which must be id, and returns its
// duration — the timed executions use it as their sample, so a sample and
// its span can never disagree.
func (r *recorder) end(id int) time.Duration {
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic("bench: spans closed out of order")
	}
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[id]
	s.Dur = int64(stats.Since(r.epoch)) - s.Start
	return time.Duration(s.Dur)
}

// selfTime is one (workload, span name) row of the self-time table.
type selfTime struct {
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	TotalMs  float64 `json:"total_ms"`
	SelfMs   float64 `json:"self_ms"`
}

// selfTimes sums, per (workload, name), each span's duration and its self
// time: the duration minus the part its child spans cover. Children of one
// parent never overlap (one goroutine, one stack), so their sum is the cover.
func (r *recorder) selfTimes() []selfTime {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	type key struct{ workload, name string }
	rows := map[key]*selfTime{}
	for i, s := range r.spans {
		k := key{s.Workload, s.Name}
		row := rows[k]
		if row == nil {
			row = &selfTime{Workload: s.Workload, Name: s.Name}
			rows[k] = row
		}
		row.Count++
		row.TotalMs += float64(s.Dur) / 1e6
		row.SelfMs += float64(s.Dur-child[i]) / 1e6
	}
	out := make([]selfTime, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeChrome writes the spans as Trace Event Format JSON (the form
// internal/trace exports phase spans in; load it in ui.perfetto.dev).
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{Name: s.Name, Cat: s.Workload, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent}}
	}
	return writeJSON(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
