package harness

import (
	"strings"
	"testing"

	"rfdet/internal/api"
	"rfdet/internal/pthreads"
	"rfdet/internal/workloads"
)

// aliases keeping the broken-workload literal readable.
type (
	apiThread     = api.Thread
	apiThreadFunc = api.ThreadFunc
)

func TestRunMedianOfRepeats(t *testing.T) {
	w, err := workloads.ByName("matrix_multiply")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(NewRFDetCI(), w, workloads.Config{Threads: 2, Size: workloads.SizeTest}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "matrix_multiply" || res.Runtime != "rfdet-ci" || res.Threads != 2 {
		t.Fatalf("result metadata wrong: %+v", res)
	}
	if res.Report.VirtualTime == 0 {
		t.Fatal("no virtual time measured")
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	// A failing program must surface the runtime's error through Run.
	broken := workloads.Workload{
		Name: "broken",
		Prog: func(cfg workloads.Config) apiThreadFunc {
			return func(t apiThread) { t.Unlock(64) } // misuse: unheld mutex
		},
	}
	if _, err := Run(NewRFDetCI(), broken, workloads.Config{Threads: 1, Size: workloads.SizeTest}, 1); err == nil {
		t.Fatal("expected the misuse error to propagate")
	}
	// And a healthy run on the pthreads baseline works.
	res, err := Run(pthreads.New(), mustByName(t, "ocean"), workloads.Config{Threads: 1, Size: workloads.SizeTest}, 1)
	if err != nil || res == nil {
		t.Fatalf("single-thread ocean should run: %v", err)
	}
}

func mustByName(t *testing.T, name string) workloads.Workload {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestFigure7RendersAllRows(t *testing.T) {
	var sb strings.Builder
	if err := Figure7(&sb, workloads.SizeTest, 2, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range workloads.Names() {
		if !strings.Contains(out, name) {
			t.Fatalf("Figure 7 output missing %s:\n%s", name, out)
		}
	}
	for _, col := range []string{"pthreads", "dthreads", "rfdet-pf", "rfdet-ci", "geomean", "worst case"} {
		if !strings.Contains(out, col) {
			t.Fatalf("Figure 7 output missing %q", col)
		}
	}
}

func TestTable1RendersAllRows(t *testing.T) {
	var sb strings.Builder
	if err := Table1(&sb, workloads.SizeTest, 2); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range workloads.Names() {
		if !strings.Contains(out, name) {
			t.Fatalf("Table 1 output missing %s", name)
		}
	}
}

func TestFigure8SkipsPipelineApps(t *testing.T) {
	var sb strings.Builder
	if err := Figure8(&sb, workloads.SizeTest, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, skipped := range []string{"dedup", "ferret", "lu-non"} {
		if strings.Contains(out, skipped) {
			t.Fatalf("Figure 8 should omit %s (as the paper does)", skipped)
		}
	}
	if !strings.Contains(out, "geomean") {
		t.Fatal("Figure 8 missing geomean row")
	}
}

func TestFigure9CoversSplash(t *testing.T) {
	var sb strings.Builder
	if err := Figure9(&sb, workloads.SizeTest, 2, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{"ocean", "water-ns", "water-sp", "fft", "radix", "lu-con", "lu-non"} {
		if !strings.Contains(out, name) {
			t.Fatalf("Figure 9 missing %s", name)
		}
	}
	if strings.Contains(out, "dedup") {
		t.Fatal("Figure 9 should cover the SPLASH-2 subset only")
	}
}

func TestRaceyCheckPasses(t *testing.T) {
	var sb strings.Builder
	if err := RaceyCheck(&sb, RaceyRuntimes(), []int{2, 4, 8}, workloads.SizeTest, 5); err != nil {
		t.Fatalf("racey check failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "DETERMINISTIC") {
		t.Fatal("racey output missing verdicts")
	}
}

// flakyRuntime stands in for a deterministic runtime that is not: every run
// reports a new output hash.
type flakyRuntime struct{ runs uint64 }

func (r *flakyRuntime) Name() string { return "flaky" }

func (r *flakyRuntime) Run(api.ThreadFunc) (*api.Report, error) {
	r.runs++
	return &api.Report{OutputHash: r.runs}, nil
}

// TestRaceyCheckFailsOnNondeterminism: two outputs from a runtime other than
// pthreads fail the check, and its row says so.
func TestRaceyCheckFailsOnNondeterminism(t *testing.T) {
	var sb strings.Builder
	err := RaceyCheck(&sb, []api.Runtime{&flakyRuntime{}}, []int{2}, workloads.SizeTest, 2)
	if err == nil || !strings.Contains(err.Error(), "flaky at 2 threads") {
		t.Fatalf("error = %v, want the flaky runtime named", err)
	}
	if !strings.Contains(sb.String(), "FAILED") {
		t.Fatalf("no FAILED row:\n%s", sb.String())
	}
}
