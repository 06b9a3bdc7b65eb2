// Command bench is the repository's benchmark: host wall-clock time of the
// RFDet runtime on four workloads, end to end and layer by layer, with every
// timed execution checked against a pinned deterministic fingerprint. See
// README.md for the metric glossary and how to compare two runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"rfdet/internal/workloads"
)

// config is one invocation.
type config struct {
	workload string        // one workload's name, or "" for all four
	seed     uint64        // kv_server's request logs and the layer drivers' inputs
	seconds  float64       // timed window; the traced pass takes half as long
	trace    int           // 0: end-to-end metrics, 1: per-layer metrics, -1: both
	scale    float64       // shrinks the panel and the layer pass's counts (tests)
	reps     int           // least number of setups before a timed window; setup_s is their median
	setupFor time.Duration // keep repeating a cheap setup for this long
	outDir   string        // result.json and spans.json land here; "" writes nothing
}

type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Threads    int     `json:"dmt_threads"`
}

type workloadResult struct {
	Name        string   `json:"name"`
	Why         string   `json:"why"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	FailedShare float64  `json:"failed_share"`
	EndToEnd    []metric `json:"end_to_end,omitempty"`
	RawTimes    []metric `json:"raw_times,omitempty"`
	PerLayer    []metric `json:"per_layer,omitempty"`
}

// document is the machine-readable result of one invocation, the input of
// -compare. Claim is always null: the benchmark states numbers, a later
// change that edits no benchmark file makes claims against them.
type document struct {
	Claim     *string          `json:"claim"`
	Host      hostInfo         `json:"host"`
	Workloads []workloadResult `json:"workloads"`
	Layers    []metric         `json:"layers,omitempty"`
	SelfTimes []selfTime       `json:"self_times"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// run measures what cfg asks for. A workload that fails its setup is an
// error; executions that fail later are counted in the document.
func run(cfg config) (*document, error) {
	selected := allWorkloads
	if cfg.workload != "" {
		selected = nil
		for _, w := range allWorkloads {
			if w.name == cfg.workload {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return nil, fmt.Errorf("unknown workload %q", cfg.workload)
		}
	}
	procs := runtime.NumCPU()
	if procs > threads {
		procs = threads
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	h := &harness{rec: newRecorder(), procs: procs}
	doc := &document{Host: hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(),
		Commit: commit(), Seed: cfg.seed, Seconds: cfg.seconds, Threads: threads}}
	window := time.Duration(cfg.seconds * float64(time.Second))

	var leqNs float64
	if cfg.trace != 0 {
		var err error
		if doc.Layers, err = runLayers(h.rec, cfg.seed, cfg.scale); err != nil {
			return nil, err
		}
		for _, m := range doc.Layers {
			if m.Name == "vclock.leq_ns" {
				leqNs = m.Value
			}
		}
	}
	for i := range selected {
		w := &selected[i]
		res := workloadResult{Name: w.name, Why: w.why}
		inputs := w.inputs(cfg.seed, cfg.scale)
		reps, setupFor := 1, time.Duration(0)
		if cfg.trace != 1 {
			reps, setupFor = cfg.reps, cfg.setupFor
		}
		want, setups, err := h.setups(w, inputs, reps, setupFor)
		if err != nil {
			return nil, err
		}
		if cfg.trace != 1 {
			res.EndToEnd, res.RawTimes, res.Attempted, res.Failed = h.measureEndToEnd(w, inputs, want, setups, window)
		}
		if cfg.trace != 0 {
			ms, attempted, failed := h.measureTraced(w, inputs, want, window/2, leqNs)
			res.PerLayer = ms
			res.Attempted += attempted
			res.Failed += failed
		}
		res.FailedShare = float64(res.Failed) / float64(res.Attempted)
		doc.Workloads = append(doc.Workloads, res)
	}
	doc.SelfTimes = h.rec.selfTimes()
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := writeJSON(filepath.Join(cfg.outDir, "result.json"), doc); err != nil {
			return nil, err
		}
		if err := h.rec.writeChrome(filepath.Join(cfg.outDir, "spans.json")); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

func printMetrics(title string, ms []metric) {
	if len(ms) == 0 {
		return
	}
	fmt.Printf("  %s\n", title)
	for _, m := range ms {
		line := fmt.Sprintf("    %-32s %14.4f %-6s n=%d", m.Name, m.Value, m.Unit, m.Samples)
		if m.Spread != 0 {
			line += fmt.Sprintf("  spread=%.2f%%", m.Spread*100)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Println(line)
	}
}

func (d *document) print() {
	h := d.Host
	fmt.Printf("rfdet bench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%#x window=%gs dmt-threads=%d\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Seed, h.Seconds, h.Threads)
	for _, w := range d.Workloads {
		fmt.Printf("%s: attempted=%d failed=%d failed_share=%g\n", w.Name, w.Attempted, w.Failed, w.FailedShare)
		printMetrics("end to end (tracing off; x = multiples of the host probe)", w.EndToEnd)
		printMetrics("raw host times of the same window (informative, never gated)", w.RawTimes)
		printMetrics("per layer (traced pass, median per execution)", w.PerLayer)
	}
	if len(d.Layers) > 0 {
		fmt.Println("layers:")
		printMetrics("per layer (layer pass, one operation timed from outside)", d.Layers)
	}
}

// resultLine is the last line of standard output when one workload was
// named: the form the benchmark driver reads.
func (d *document) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	w := d.Workloads[0]
	metrics := map[string]value{}
	for _, list := range [][]metric{w.EndToEnd, w.PerLayer, d.Layers} {
		for _, m := range list {
			metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": w.Failed == 0, "attempted": w.Attempted, "failed": w.Failed, "metrics": metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

func (d *document) failed() int {
	n := 0
	for _, w := range d.Workloads {
		n += w.Failed
	}
	return n
}

func main() {
	cfg := config{scale: 1, reps: 3, setupFor: 1500 * time.Millisecond}
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (kv_server, water_ns, fft, matmul) and end with the driver's result line; default all")
	flag.Uint64Var(&cfg.seed, "seed", workloads.DefaultServerSeed, "seed of kv_server's request logs and the layer drivers' inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed window; the traced pass takes half as long")
	flag.IntVar(&cfg.trace, "trace", -1, "0: end-to-end metrics with tracing off, 1: per-layer metrics, -1: both")
	flag.StringVar(&cfg.outDir, "out", "bench/out", "directory for result.json and spans.json")
	cmp := flag.Bool("compare", false, "compare two result documents with the bounds of ./BENCHMARK.json: bench -compare A.json B.json")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	doc, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	doc.print()
	if cfg.workload != "" {
		fmt.Println(doc.resultLine())
	}
	if doc.failed() > 0 {
		os.Exit(1)
	}
}
