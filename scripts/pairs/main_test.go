package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// stub stands in for bench/run.sh: it writes a result.json for the workload
// it is given into --out, with values that grow by 0.01 a call, and appends
// its side's name to ../order. Both sides report the same values but for
// run_x_p50 (the change's is 10% lower), setup_s (double) and
// alloc_kb_per_run (+1 KiB).
const stub = `#!/bin/sh
while [ $# -gt 0 ]; do
	case $1 in --out) out=$2; shift ;; --workload) w=$2; shift ;; esac
	shift
done
n=$(( $(cat calls 2>/dev/null || echo 0) + 1 ))
echo $n > calls
echo %[1]s >> ../order
mkdir -p "$out"
cat > "$out/result.json" <<EOF
{"claim": null, "host": {"nproc": 2, "gomaxprocs": 2, "go_version": "go1.x", "dmt_threads": 4},
 "workloads": [{"name": "$w", "attempted": 100, "failed": 0,
  "end_to_end": [
   {"name": "setup_s", "value": %[2]s.$n, "unit": "s"},
   {"name": "run_x_p50", "value": %[3]s.$n, "unit": "x"},
   {"name": "run_x_p90", "value": 30.$n, "unit": "x"},
   {"name": "allocs_per_run", "value": 340.$n, "unit": "count"},
   {"name": "alloc_kb_per_run", "value": %[4]s.$n, "unit": "KiB"}],
  "raw_times": [{"name": "run_ms_p50", "value": 2.$n, "unit": "ms"}, {"name": "host_probe_us", "value": $((80 + n %% 10)), "unit": "us"}]}]}
EOF
`

func benchmarkMetrics(t *testing.T) []bounded {
	t.Helper()
	var spec struct {
		EndToEnd []bounded `json:"end_to_end"`
	}
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd
}

// TestPairsDrivesTwoStubs runs the protocol on two stub benchmarks and checks
// the order of the windows, what the ledger keeps of them, its verdicts and
// the summary's length.
func TestPairsDrivesTwoStubs(t *testing.T) {
	root := t.TempDir()
	cfg := &config{bench: []string{"sh", "bench/run.sh"}, workloads: []string{"kv_server", "water_ns", "fft", "matmul"},
		pairs: 10, seconds: 1, work: filepath.Join(root, "work"), metrics: benchmarkMetrics(t),
		dirs: both[string]{filepath.Join(root, "parent"), filepath.Join(root, "change")}}
	for dir, vals := range map[string][]any{cfg.dirs.Parent: {"parent", "1", "20", "447"}, cfg.dirs.Change: {"change", "2", "18", "448"}} {
		if err := os.MkdirAll(filepath.Join(dir, "bench"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "bench", "run.sh"), []byte(fmt.Sprintf(stub, vals...)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	wls, verdicts, host, err := measure(cfg)
	if err != nil {
		t.Fatal(err)
	}

	order, err := os.ReadFile(filepath.Join(root, "order"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for range cfg.workloads {
		for i := 1; i <= cfg.pairs; i++ {
			if i%2 == 1 {
				want = append(want, "parent", "change")
			} else {
				want = append(want, "change", "parent")
			}
		}
	}
	if got := strings.Fields(string(order)); !slices.Equal(got, want) {
		t.Fatalf("windows ran in the order %v, want parent first in odd pairs: %v", got, want)
	}
	if host != "2 vCPU, GOMAXPROCS 2, 4 DMT threads, go1.x" {
		t.Fatalf("host = %q", host)
	}

	for _, w := range cfg.workloads {
		wl := wls[w]
		if wl.Pairs != 10 || wl.Attempted != (both[int]{1000, 1000}) || wl.Failed != (both[int]{}) || wl.Correct != (both[bool]{true, true}) {
			t.Fatalf("%s: pairs %d, attempted %v, failed %v, correct %v", w, wl.Pairs, wl.Attempted, wl.Failed, wl.Correct)
		}
		for _, name := range append(slices.Clone(perWindow), "run_x_p50") {
			var got both[[]float64]
			if m := wl.Metrics[name]; m != nil {
				got = both[[]float64]{m.Parent, m.Change}
			} else {
				got = wl.PerWindow[name]
			}
			if len(got.Parent) != 10 || len(got.Change) != 10 {
				t.Fatalf("%s %s kept %d and %d windows, want every one of 10", w, name, len(got.Parent), len(got.Change))
			}
		}
		for name, want := range map[string]string{
			"run_x_p50":        "lower (>=9/10, gap > parent IQR)",
			"run_x_p90":        "no resolved change, within bound",
			"allocs_per_run":   "no resolved change, within bound",
			"alloc_kb_per_run": "higher (>=9/10, gap > parent IQR), within bound",
			"setup_s":          "higher (>=9/10, gap > parent IQR), beyond bound",
		} {
			if got := verdicts[w][name]; got != want {
				t.Errorf("%s %s: verdict %q, want %q (%+v)", w, name, got, want, *wl.Metrics[name])
			}
		}
	}

	l := &ledger{PR: 1, Title: "stub", Parent: "0123456789abcdef", Workloads: wls, Verdict: verdicts,
		Claim: &claim{"matmul", "run_x_p50", "lower", "a lot"}}
	text := summary(l, cfg.workloads, cfg.metrics)
	if n := strings.Count(text, "\n"); n > 30 {
		t.Fatalf("summary is %d lines, want at most 30:\n%s", n, text)
	}
	if !strings.Contains(text, "| `matmul` | `run_x_p50` |") || !strings.Contains(text, "80–89 µs") {
		t.Fatalf("summary lacks the matmul row or the probe range:\n%s", text)
	}
}

// TestReproducesBENCH35 recomputes BENCH_35.json's statistics and verdict
// strings from that file's own value lists.
func TestReproducesBENCH35(t *testing.T) {
	var l ledger
	raw, err := os.ReadFile("../../BENCH_35.json")
	if err == nil {
		err = json.Unmarshal(raw, &l)
	}
	if err != nil {
		t.Fatal(err)
	}
	metrics := benchmarkMetrics(t)
	n := 0
	for w, wl := range l.Workloads {
		for _, def := range metrics {
			rec := wl.Metrics[def.Name]
			m := summarize(rec.Unit, rec.Parent, rec.Change)
			const eps = 1.5e-4 // the lists are rounded to four places
			if m.ChangeLowerIn != rec.ChangeLowerIn || m.ChangeHigherIn != rec.ChangeHigherIn ||
				math.Abs(m.ParentMedian-rec.ParentMedian) > eps || math.Abs(m.ChangeMedian-rec.ChangeMedian) > eps ||
				math.Abs(m.ParentIQR-rec.ParentIQR) > eps || math.Abs(m.DeltaPct-rec.DeltaPct) > 0.011 {
				t.Errorf("%s %s: recomputed %+v, recorded %+v", w, def.Name, *m, *rec)
			}
			if got, want := verdict(m, def), l.Verdict[w][def.Name]; got != want {
				t.Errorf("%s %s: verdict %q, recorded %q", w, def.Name, got, want)
			}
			n++
		}
	}
	if n != 20 {
		t.Fatalf("checked %d metrics, want 4 workloads × 5", n)
	}
}

// TestCheckedInLedgersHaveTheSevenKeys: every BENCH_<pr>.json at the
// repository root parses, has the keys the ledger type writes, and names its
// own PR.
func TestCheckedInLedgersHaveTheSevenKeys(t *testing.T) {
	raw, err := json.Marshal(ledger{})
	if err != nil {
		t.Fatal(err)
	}
	var zero map[string]json.RawMessage
	if err := json.Unmarshal(raw, &zero); err != nil {
		t.Fatal(err)
	}
	keys := []string{"pr", "title", "parent", "protocol", "claim", "workloads", "verdict"}
	if len(zero) != len(keys) {
		t.Fatalf("the ledger type writes %d keys, want the seven %v", len(zero), keys)
	}
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no ledger found: %v", err)
	}
	for _, f := range files {
		var doc map[string]json.RawMessage
		raw, err := os.ReadFile(f)
		if err == nil {
			err = json.Unmarshal(raw, &doc)
		}
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, k := range keys {
			if _, ok := doc[k]; !ok {
				t.Errorf("%s has no %q", f, k)
			}
		}
		num := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json")
		if pr, err := strconv.Atoi(string(doc["pr"])); err != nil || strconv.Itoa(pr) != num {
			t.Errorf("%s: \"pr\" is %s", f, doc["pr"])
		}
	}
}
