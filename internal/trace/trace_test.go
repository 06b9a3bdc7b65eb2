package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilCollectorAndBufAreNoOps(t *testing.T) {
	var c *Collector
	b := c.NewThread(3)
	if b != nil {
		t.Fatal("nil collector must hand out nil buffers")
	}
	// Every recording method must be callable on the nil buffer.
	if b.Now() != 0 {
		t.Fatal("nil buffer Now() != 0")
	}
	b.Begin()
	b.Span(PhaseDiff, 0)
	b.SpanDetail(PhaseBlock, 0, "x")
	b.Mark("lock", 64)
	b.Finish()
	var r *Report
	if r.PhaseTotals() != ([NumPhases]time.Duration{}) {
		t.Fatal("nil report totals not zero")
	}
	if r.PhaseCounts() != ([NumPhases]uint64{}) {
		t.Fatal("nil report counts not zero")
	}
	if r.UserTime() != 0 {
		t.Fatal("nil report user time not zero")
	}
	if err := r.WriteChrome(&bytes.Buffer{}); err == nil {
		t.Fatal("exporting a nil report must error")
	}
	if err := r.WriteSummary(&bytes.Buffer{}); err == nil {
		t.Fatal("summarizing a nil report must error")
	}
	if c.Render() != nil {
		t.Fatal("nil collector must render nil")
	}
}

func TestPhaseStrings(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < NumPhases; p++ {
		s := p.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Fatalf("bad or duplicate phase name %q", s)
		}
		seen[s] = true
	}
	if NumPhases.String() != "unknown" {
		t.Fatal("out-of-range phase must stringify as unknown")
	}
}

// synthetic builds a report by hand: one thread alive [0, 1000] with spans
// block [100, 500] containing premerge [200, 300], and diff [600, 700].
func synthetic() *Report {
	c := NewCollector()
	b := c.NewThread(1)
	b.start = 0
	b.end = 1000
	b.spans = append(b.spans,
		Span{Phase: PhaseDiff, Start: 600, Dur: 100},
		Span{Phase: PhaseBlock, Start: 100, Dur: 400, Detail: "lock 0x40"},
		Span{Phase: PhasePremerge, Start: 200, Dur: 100},
	)
	b.marks = append(b.marks, Mark{Op: "lock", Addr: 64, At: 500})
	return c.Render()
}

func TestRenderSortsAndUserTime(t *testing.T) {
	r := synthetic()
	if len(r.Threads) != 1 {
		t.Fatalf("threads = %d", len(r.Threads))
	}
	tl := r.Threads[0]
	if tl.Spans[0].Phase != PhaseBlock || tl.Spans[1].Phase != PhasePremerge || tl.Spans[2].Phase != PhaseDiff {
		t.Fatalf("spans not sorted by start: %+v", tl.Spans)
	}
	tot := r.PhaseTotals()
	if tot[PhaseBlock] != 400 || tot[PhasePremerge] != 100 || tot[PhaseDiff] != 100 {
		t.Fatalf("totals wrong: %v", tot)
	}
	n := r.PhaseCounts()
	if n[PhaseBlock] != 1 || n[PhasePremerge] != 1 || n[PhaseDiff] != 1 {
		t.Fatalf("counts wrong: %v", n)
	}
	// The premerge nests inside the block, so the covered union is
	// [100,500] ∪ [600,700] = 500ns, and user time is 1000 − 500.
	if u := r.UserTime(); u != 500 {
		t.Fatalf("user time = %d, want 500", u)
	}
}

func TestUnionWithinClipsAndMerges(t *testing.T) {
	spans := []Span{
		{Start: -50, Dur: 100},  // clipped to [0, 50]
		{Start: 40, Dur: 20},    // overlaps previous → extends to 60
		{Start: 100, Dur: 50},   // disjoint
		{Start: 120, Dur: 10},   // nested inside previous
		{Start: 900, Dur: 1000}, // clipped to [900, 1000]
	}
	if got := unionWithin(spans, 0, 1000); got != 60+50+100 {
		t.Fatalf("union = %d, want 210", got)
	}
	if got := unionWithin(nil, 0, 1000); got != 0 {
		t.Fatalf("empty union = %d", got)
	}
}

func TestExportAndValidate(t *testing.T) {
	r := synthetic()
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"traceEvents"`, `"block"`, `"premerge"`, `"diff"`,
		`"thread_name"`, `"lock"`, `"detail":"lock 0x40"`, `"cat":"sync"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %s:\n%s", want, out)
		}
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateChromeRejections(t *testing.T) {
	mk := func(events string) []byte {
		return []byte(`{"traceEvents":[` + events + `],"displayTimeUnit":"ns"}`)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"bad json", []byte(`{`)},
		{"no duration events", mk(`{"name":"lock","ph":"i","ts":1,"pid":0,"tid":0,"s":"t"}`)},
		{"negative ts", mk(`{"name":"diff","ph":"X","ts":-1,"dur":5,"pid":0,"tid":0}`)},
		{"negative instant", mk(
			`{"name":"diff","ph":"X","ts":1,"dur":5,"pid":0,"tid":0},` +
				`{"name":"lock","ph":"i","ts":-1,"pid":0,"tid":0,"s":"t"}`)},
		{"unknown phase", mk(`{"name":"x","ph":"Q","ts":1,"pid":0,"tid":0}`)},
		{"overlap", mk(
			`{"name":"block","ph":"X","ts":0,"dur":10,"pid":0,"tid":1},` +
				`{"name":"premerge","ph":"X","ts":5,"dur":10,"pid":0,"tid":1}`)},
	}
	for _, tc := range cases {
		if err := ValidateChrome(tc.data); err == nil {
			t.Fatalf("%s: expected validation error", tc.name)
		}
	}
	// Properly nested and sequential spans validate.
	ok := mk(
		`{"name":"block","ph":"X","ts":0,"dur":10,"pid":0,"tid":1},` +
			`{"name":"premerge","ph":"X","ts":2,"dur":4,"pid":0,"tid":1},` +
			`{"name":"diff","ph":"X","ts":20,"dur":5,"pid":0,"tid":1}`)
	if err := ValidateChrome(ok); err != nil {
		t.Fatal(err)
	}
}

// TestValidateChromeTouchingSpans: a span that starts where the previous one
// ends is sequential, even when the first one's float end lands past the
// second one's start.
func TestValidateChromeTouchingSpans(t *testing.T) {
	if ts, dur := 0.001, 84.703; ts+dur <= 84.704 {
		t.Fatalf("0.001 + 84.703 = %v: the float end no longer passes the next start", ts+dur)
	}
	touching := []byte(`{"traceEvents":[` +
		`{"name":"turn-wait","ph":"X","ts":0.001,"dur":84.703,"pid":0,"tid":1},` +
		`{"name":"drain","ph":"X","ts":84.704,"dur":1,"pid":0,"tid":1}],"displayTimeUnit":"ns"}`)
	if err := ValidateChrome(touching); err != nil {
		t.Fatal(err)
	}
}

func TestExportIsValidJSON(t *testing.T) {
	c := NewCollector()
	b := c.NewThread(0)
	b.Begin()
	ts := b.Now()
	b.Span(PhaseMonitorWait, ts)
	b.Mark("unlock", 64)
	b.Finish()
	var buf bytes.Buffer
	if err := c.Render().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestWriteSummaryTable(t *testing.T) {
	r := synthetic()
	var buf bytes.Buffer
	if err := r.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header, thread 1, total
		t.Fatalf("summary has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "thread") || !strings.Contains(lines[0], "block-us") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[2], "total") {
		t.Fatalf("missing total row: %s", lines[2])
	}
}

func TestPerOpAveragesPhaseTotals(t *testing.T) {
	r := &Report{Threads: []Timeline{{
		ID: 0, Start: 0, End: 1000,
		Spans: []Span{
			{Phase: PhaseDiff, Start: 0, Dur: 100},
			{Phase: PhaseDiff, Start: 200, Dur: 100},
			{Phase: PhaseApply, Start: 400, Dur: 50},
		},
	}}}
	per := r.PerOp(10)
	if per[PhaseDiff] != 20 {
		t.Fatalf("diff per-op = %d, want 20", per[PhaseDiff])
	}
	if per[PhaseApply] != 5 {
		t.Fatalf("apply per-op = %d, want 5", per[PhaseApply])
	}
	if z := r.PerOp(0); z != ([NumPhases]time.Duration{}) {
		t.Fatalf("PerOp(0) = %v, want zeros", z)
	}
	var nilReport *Report
	if z := nilReport.PerOp(5); z != ([NumPhases]time.Duration{}) {
		t.Fatalf("nil PerOp = %v, want zeros", z)
	}
}
