package harness

import (
	"bytes"
	"strings"
	"testing"

	"rfdet/internal/core"
	"rfdet/internal/workloads"
)

// TestReplicasAgreeAcrossStacks is the harness-level acceptance check: k=3
// replicas of the same request log, at the ambient GOMAXPROCS and at 1, must
// be byte-identical in every fingerprint.
func TestReplicasAgreeAcrossStacks(t *testing.T) {
	cfg := workloads.Config{Threads: 4, Size: workloads.SizeTest}
	rep := RunServerReplicas(cfg, workloads.DefaultServerSeed, DefaultVariants(3))
	if rep.Divergent() {
		t.Fatalf("replicas diverged:\n%s", strings.Join(rep.Divergences, "\n"))
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("%d runs, want 3", len(rep.Runs))
	}
	for i, run := range rep.Runs {
		if run.Err != nil {
			t.Fatalf("replica %d: %v", i, run.Err)
		}
		if run.Summary.Served != uint64(rep.Requests) {
			t.Fatalf("replica %d served %d of %d", i, run.Summary.Served, rep.Requests)
		}
		if run.Phases == nil {
			t.Fatalf("replica %d: DefaultVariants promises phase traces", i)
		}
		if run.ReqPerSecVirtual(rep.Requests) <= 0 {
			t.Fatalf("replica %d: no virtual throughput", i)
		}
	}
}

// TestReplicaMatrixVariantsShape pins the acceptance matrix: GOMAXPROCS
// {1,4,8} = 3 distinct variants.
func TestReplicaMatrixVariantsShape(t *testing.T) {
	vs := MatrixVariants()
	if len(vs) != 3 {
		t.Fatalf("%d matrix variants, want 3", len(vs))
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if seen[v.Name] {
			t.Fatalf("duplicate variant %q", v.Name)
		}
		seen[v.Name] = true
		if v.Procs != 1 && v.Procs != 4 && v.Procs != 8 {
			t.Fatalf("variant %q procs %d", v.Name, v.Procs)
		}
	}
}

// TestReplicaDivergentByAbort: a replica whose log injects a failing request
// must unwind cleanly and be reported as divergent-by-abort — while the
// clean replicas still agree with each other.
func TestReplicaDivergentByAbort(t *testing.T) {
	cfg := workloads.Config{Threads: 4, Size: workloads.SizeTest}
	variants := []ReplicaVariant{
		{Name: "clean-a", Opts: core.DefaultOptions()},
		{Name: "poisoned", Opts: core.DefaultOptions(), InjectAbort: true},
		{Name: "clean-b", Opts: core.DefaultOptions()},
	}
	rep := RunServerReplicas(cfg, workloads.DefaultServerSeed, variants)
	if !rep.Divergent() {
		t.Fatal("poisoned replica must mark the report divergent")
	}
	if len(rep.Divergences) != 1 {
		t.Fatalf("divergences %v: the two clean replicas must still agree", rep.Divergences)
	}
	if !strings.Contains(rep.Divergences[0], "divergent-by-abort") {
		t.Fatalf("divergence %q not classified as abort", rep.Divergences[0])
	}
	if rep.Runs[1].Err == nil || !strings.Contains(rep.Runs[1].Err.Error(), "barrier with count") {
		t.Fatalf("poisoned replica error = %v", rep.Runs[1].Err)
	}
	if rep.Runs[0].Err != nil || rep.Runs[2].Err != nil {
		t.Fatalf("clean replicas errored: %v / %v", rep.Runs[0].Err, rep.Runs[2].Err)
	}
}

// TestReplicaTableRendersAndPasses runs the rfdet-bench artifact end to end.
func TestReplicaTableRendersAndPasses(t *testing.T) {
	var buf bytes.Buffer
	if err := ReplicaTable(&buf, workloads.SizeTest, 4, 3); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"replica divergence check", "req/s(v)", "byte-identical"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("table reported divergence:\n%s", out)
	}
}

// TestReplicasDetectRealDivergence closes the oracle loop: feed the checker
// two replicas of *different* request logs and it must flag them — the
// divergence machinery is live, not vacuously green.
func TestReplicasDetectRealDivergence(t *testing.T) {
	cfg := workloads.Config{Threads: 2, Size: workloads.SizeTest}
	a := RunServerReplicas(cfg, 1, DefaultVariants(1))
	b := RunServerReplicas(cfg, 2, DefaultVariants(1))
	if a.Divergent() || b.Divergent() {
		t.Fatal("single replicas cannot diverge")
	}
	if a.Runs[0].Summary.ResponseHash == b.Runs[0].Summary.ResponseHash &&
		a.Runs[0].Summary.StateHash == b.Runs[0].Summary.StateHash {
		t.Fatal("different seeds produced identical fingerprints — the oracle is blind")
	}
}
