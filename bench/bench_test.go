package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func readManifest(t *testing.T) manifest {
	t.Helper()
	var mf manifest
	if err := readJSON("../BENCHMARK.json", &mf); err != nil {
		t.Fatal(err)
	}
	return mf
}

// TestPipeline runs every pass of the benchmark at a fraction of its size
// and holds what it emits equal to what BENCHMARK.json declares: every
// declared name exactly once per workload, with the declared unit, and no
// failed execution.
func TestPipeline(t *testing.T) {
	mf := readManifest(t)
	out := t.TempDir()
	doc, err := run(config{seed: 7, seconds: 0.2, trace: -1, scale: 0.05, reps: 1, outDir: out})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Claim != nil {
		t.Errorf("claim = %q, the benchmark claims nothing", *doc.Claim)
	}
	if len(doc.Workloads) != len(mf.Workloads) {
		t.Fatalf("ran %d workloads, BENCHMARK.json declares %d", len(doc.Workloads), len(mf.Workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	units := func(ms []metric) map[string]string {
		got := map[string]string{}
		for _, m := range ms {
			if _, dup := got[m.Name]; dup {
				t.Errorf("%s emitted twice", m.Name)
			}
			if !name.MatchString(m.Name) || m.Unit == "" || m.Samples < 1 {
				t.Errorf("metric %+v: bad name, no unit or no samples", m)
			}
			got[m.Name] = m.Unit
		}
		return got
	}
	for i, w := range doc.Workloads {
		if w.Name != mf.Workloads[i].Name || w.Why != mf.Workloads[i].Why {
			t.Errorf("workload %d is %q (%q), BENCHMARK.json says %q (%q)", i, w.Name, w.Why, mf.Workloads[i].Name, mf.Workloads[i].Why)
		}
		if w.Failed != 0 || w.FailedShare != 0 || w.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, w.Attempted, w.Failed)
		}
		e2e := units(w.EndToEnd)
		if len(e2e) != len(mf.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, BENCHMARK.json declares %d", w.Name, len(e2e), len(mf.EndToEnd))
		}
		for _, m := range mf.EndToEnd {
			if e2e[m.Name] != m.Unit {
				t.Errorf("%s: end-to-end %s has unit %q, declared %q", w.Name, m.Name, e2e[m.Name], m.Unit)
			}
		}
		if raw := units(w.RawTimes); raw["run_ms_p50"] != "ms" || raw["run_ms_p90"] != "ms" || raw["runs_per_s"] != "1/s" ||
			raw["host_virtual_x"] != "ratio" || raw["host_probe_us"] != "us" {
			t.Errorf("%s: raw host times %v", w.Name, raw)
		}
		layer := units(append(append([]metric(nil), w.PerLayer...), doc.Layers...))
		if len(layer) != len(mf.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, BENCHMARK.json declares %d", w.Name, len(layer), len(mf.PerLayer))
		}
		for _, m := range mf.PerLayer {
			if layer[m.Name] != m.Unit {
				t.Errorf("%s: per-layer %s has unit %q, declared %q", w.Name, m.Name, layer[m.Name], m.Unit)
			}
		}
	}

	// The documents written at exit: comparing the result with itself has one
	// row per (workload, metric), none better or worse (windows this short
	// may be unresolved), and the spans nest under their parents.
	var table bytes.Buffer
	result := filepath.Join(out, "result.json")
	worse, err := compareFiles(&table, "../BENCHMARK.json", result, result)
	if err != nil || worse {
		t.Fatalf("self-compare: worse=%v err=%v\n%s", worse, err, table.String())
	}
	rows := strings.Count(table.String(), " within\n") + strings.Count(table.String(), " unresolved\n")
	if rows != len(mf.Workloads)*(len(mf.EndToEnd)+1) {
		t.Errorf("self-compare has %d rows within or unresolved:\n%s", rows, table.String())
	}
	var spans struct {
		TraceEvents []struct {
			Name    string
			Ts, Dur float64
			Args    struct{ Parent int }
		}
	}
	if err := readJSON(filepath.Join(out, "spans.json"), &spans); err != nil {
		t.Fatal(err)
	}
	runs := 0
	for _, e := range spans.TraceEvents {
		if e.Name == "run" {
			runs++
		}
		if p := e.Args.Parent; p >= 0 {
			if parent := spans.TraceEvents[p]; e.Ts < parent.Ts || e.Ts+e.Dur > parent.Ts+parent.Dur+1e-3 {
				t.Fatalf("span %s [%f,+%f] leaves its parent %s [%f,+%f]", e.Name, e.Ts, e.Dur, parent.Name, parent.Ts, parent.Dur)
			}
		}
	}
	if runs == 0 {
		t.Error("no run spans recorded")
	}
}

// TestWrongPinFailsGate shows the oracle is not vacuous: the same setup that
// passes with the real pin fails when one pinned field is falsified.
func TestWrongPinFailsGate(t *testing.T) {
	h := &harness{rec: newRecorder(), procs: 1}
	w := allWorkloads[len(allWorkloads)-1] // matmul: the cheapest
	if _, err := h.setup(&w, w.inputs(1, 1)); err != nil {
		t.Fatalf("real pin: %v", err)
	}
	w.pin.VirtualTime++
	if _, err := (&harness{rec: newRecorder(), procs: 1}).setup(&w, w.inputs(1, 1)); err == nil {
		t.Fatal("setup passed against a falsified pin")
	}
}

// TestFailedExecutionIsCounted: an execution whose fingerprint differs from
// the one setup recorded lands in failed, not in the samples.
func TestFailedExecutionIsCounted(t *testing.T) {
	h := &harness{rec: newRecorder(), procs: 1}
	w := allWorkloads[len(allWorkloads)-1]
	want := []fingerprint{w.pin}
	want[0].OutputHash++
	segs, attempted, failed := h.timedWindow(&w, []uint64{1}, want, 0)
	if segs != nil || attempted != giveUp || failed != giveUp {
		t.Fatalf("segments %v, attempted %d, failed %d; want none, %d, %d", segs, attempted, failed, giveUp, giveUp)
	}
}

func TestPercentile(t *testing.T) {
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	if got, err := percentile(asc, 90); err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if _, err := percentile(asc[:99], 90); err == nil {
		t.Error("p90 of 99 samples accepted with 9 beyond it")
	}
	if _, err := percentile(asc, 99); err == nil {
		t.Error("p99 of 100 samples accepted with 1 beyond it")
	}
	if got := quantile(asc, 50); got != 50 {
		t.Errorf("median of 1..100 = %v, want 50", got)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("quartile spread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := boundedMetric{Name: "run_ms_p50", Better: "lower", Bound: 0.08}
	higher := boundedMetric{Name: "runs_per_s", Better: "higher", Bound: 0.08}
	for _, c := range []struct {
		a, b, spread float64
		m            boundedMetric
		want         string
	}{
		{100, 107, 0.02, lower, "within"},
		{100, 109, 0.02, lower, "worse"},
		{100, 91, 0.02, lower, "better"},
		{100, 91, 0.02, higher, "worse"},
		{100, 109, 0.02, higher, "better"},
		{100, 95, 0.02, higher, "within"},
		{100, 120, 0.09, lower, "unresolved"},
		{100, 100, 0.09, higher, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.spread, c.m); got != c.want {
			t.Errorf("verdict(%v → %v, spread %v, %s better) = %s, want %s", c.a, c.b, c.spread, c.m.Better, got, c.want)
		}
	}
}

func TestSeedMakesInputs(t *testing.T) {
	kv := &allWorkloads[0]
	a, b, c := kv.inputs(42, 1), kv.inputs(42, 1), kv.inputs(43, 1)
	if len(a) != kvPanel || a[0] != 42 {
		t.Fatalf("panel of %d starting at %d, want %d starting at the seed", len(a), a[0], kvPanel)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("the same seed gave different inputs")
		}
	}
	if a[1] == c[1] {
		t.Error("different seeds gave the same inputs")
	}
}
