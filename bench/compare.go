package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// manifest is the part of BENCHMARK.json that -compare and the tests read.
type manifest struct {
	Workloads []struct{ Name, Why string }          `json:"workloads"`
	EndToEnd  []boundedMetric                       `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges b against a for a metric with the given direction and
// bound. spread is the larger of the two recorded quartile spreads: when it
// exceeds the bound the runs cannot tell a change of the bound's size from
// their own noise, so the pair is unresolved whatever the medians say.
func verdict(a, b, spread float64, m boundedMetric) string {
	if spread > m.Bound {
		return "unresolved"
	}
	change := b/a - 1 // share by which b is larger
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return "worse"
	case change < -m.Bound:
		return "better"
	}
	return "within"
}

func find(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result documents with its verdict, then the raw host times and per-layer
// deltas, which never gate. It reports whether any verdict is "worse" or any workload's
// failed_share rose.
func compareFiles(out io.Writer, manifestPath, pathA, pathB string) (worse bool, err error) {
	var mf manifest
	var a, b document
	if err := readJSON(manifestPath, &mf); err != nil {
		return false, err
	}
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	byName := map[string]workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	fmt.Fprintf(out, "A: %s commit=%s seed=%#x\nB: %s commit=%s seed=%#x\n\n", pathA, a.Host.Commit, a.Host.Seed, pathB, b.Host.Commit, b.Host.Seed)
	fmt.Fprintf(out, "%-10s %-18s %-6s %12s %12s %18s %7s %7s  %s\n", "workload", "metric", "better", "A", "B", "B/A", "spread", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, m := range mf.EndToEnd {
			ma, okA := find(wa.EndToEnd, m.Name)
			mb, okB := find(wb.EndToEnd, m.Name)
			if !okA || !okB {
				continue
			}
			spread := ma.Spread
			if mb.Spread > spread {
				spread = mb.Spread
			}
			v := verdict(ma.Value, mb.Value, spread, m)
			worse = worse || v == "worse"
			fmt.Fprintf(out, "%-10s %-18s %-6s %12.4f %12.4f %8.4f of %-6.4g %6.2f%% %6.2f%%  %s\n",
				wa.Name, m.Name, m.Better, ma.Value, mb.Value, mb.Value/ma.Value, ma.Value, spread*100, m.Bound*100, v)
		}
		v := "within"
		if wb.FailedShare > wa.FailedShare {
			v, worse = "worse", true
		}
		fmt.Fprintf(out, "%-10s %-18s %-6s %12.4g %12.4g %37s  %s\n", wa.Name, "failed_share", "lower", wa.FailedShare, wb.FailedShare, "", v)
	}
	fmt.Fprintf(out, "\nraw host times and per-layer deltas (informative, never gate)\n")
	delta := func(scope string, la, lb []metric) {
		for _, ma := range la {
			if mb, ok := find(lb, ma.Name); ok {
				fmt.Fprintf(out, "%-10s %-32s %14.4f %14.4f %-6s %+14.4f\n", scope, ma.Name, ma.Value, mb.Value, ma.Unit, mb.Value-ma.Value)
			}
		}
	}
	for _, wa := range a.Workloads {
		delta(wa.Name, wa.RawTimes, byName[wa.Name].RawTimes)
		delta(wa.Name, wa.PerLayer, byName[wa.Name].PerLayer)
	}
	delta("layers", a.Layers, b.Layers)
	return worse, nil
}
