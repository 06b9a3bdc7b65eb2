// Command pairs runs the alternating-pairs protocol on two revisions of this
// repository, writes the perf ledger, BENCH_<pr>.json, and prints a markdown
// summary of it for the change's description:
//
//	go run ./scripts/pairs -parent <rev> -change <rev> -workload matmul -n 10 -seconds 20 \
//	    -pr N -title '...' -claim matmul/run_x_p50 -by '...' -work /tmp/pairs
//
// Each revision is unpacked with git archive into its own directory under
// -work, and every window is one `bash bench/run.sh --workload W --seconds S
// --trace 0 --out DIR` run in it, so each side builds the benchmark from its
// own source with its own build cache. Pair i (from 1) runs the parent first
// when i is odd and the change first when it is even. Every window's
// result.json stays under -work, and the ledger keeps every window's
// end-to-end values, host probe and run_ms_p50: no window is dropped.
//
// The verdict of a metric is BENCH_35.json's: "lower" or "higher" when the
// change moved it that way in at least nine pairs of ten and its median moved
// by more than the parent's interquartile range, else "no resolved change";
// unless the change resolved the better way, ", within bound" or ", beyond
// bound" follows, by whether the median is worse than the parent's by at most
// BENCHMARK.json's bound.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// ledger is one BENCH_<pr>.json: the seven keys every ledger shares.
type ledger struct {
	PR        int                          `json:"pr"`
	Title     string                       `json:"title"`
	Parent    string                       `json:"parent"`
	Protocol  string                       `json:"protocol"`
	Claim     *claim                       `json:"claim"`
	Workloads map[string]*workloadLedger   `json:"workloads"`
	Verdict   map[string]map[string]string `json:"verdict"`
}

type claim struct {
	Workload  string `json:"workload"`
	Metric    string `json:"metric"`
	Direction string `json:"direction"`
	By        string `json:"by"`
}

// both is a value per side.
type both[T any] struct {
	Parent T `json:"parent"`
	Change T `json:"change"`
}

type workloadLedger struct {
	Pairs     int                        `json:"pairs"`
	Attempted both[int]                  `json:"attempted"`
	Failed    both[int]                  `json:"failed"`
	Metrics   map[string]*metricLedger   `json:"metrics"`
	PerWindow map[string]both[[]float64] `json:"per_window"`
	Correct   both[bool]                 `json:"correct"`
}

type metricLedger struct {
	Unit           string    `json:"unit"`
	Parent         []float64 `json:"parent"`
	Change         []float64 `json:"change"`
	ParentMedian   float64   `json:"parent_median"`
	ChangeMedian   float64   `json:"change_median"`
	ChangeLowerIn  int       `json:"change_lower_in"`
	ChangeHigherIn int       `json:"change_higher_in"`
	ParentIQR      float64   `json:"parent_iqr"`
	DeltaPct       float64   `json:"delta_pct_of_parent_median"`
}

// bounded is one of BENCHMARK.json's end-to-end metrics.
type bounded struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// perWindow are the raw host times kept beside every window.
var perWindow = []string{"host_probe_us", "run_ms_p50"}

// window is what one run of the benchmark reported for its workload.
type window struct {
	attempted, failed int
	values            map[string]float64
	host              string
}

// result is the part of the benchmark's result.json that a window reads.
type result struct {
	Host struct {
		NProc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
		Threads    int    `json:"dmt_threads"`
	} `json:"host"`
	Workloads []struct {
		Name      string  `json:"name"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		EndToEnd  []named `json:"end_to_end"`
		RawTimes  []named `json:"raw_times"`
	} `json:"workloads"`
}

type named struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// config is one invocation once the revisions are unpacked.
type config struct {
	dirs      both[string] // the two checkouts
	bench     []string     // the command a window runs in a checkout, before its flags
	workloads []string
	pairs     int
	seconds   float64
	work      string // where the windows' result documents go
	metrics   []bounded
}

// runWindow runs one window of workload w in dir and reads its result.json. A
// window whose executions failed still counts: the benchmark exits 1 then, and
// the ledger records the failures.
func runWindow(cfg *config, dir, w, out string) (window, error) {
	args := append(slices.Clone(cfg.bench[1:]), "--workload", w, "--seconds", fmt.Sprint(cfg.seconds), "--trace", "0", "--out", out)
	cmd := exec.Command(cfg.bench[0], args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	runErr := cmd.Run()
	raw, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err != nil {
		return window{}, fmt.Errorf("%s in %s: %v (%v)", w, dir, err, runErr)
	}
	var doc result
	if err := json.Unmarshal(raw, &doc); err != nil {
		return window{}, fmt.Errorf("%s/result.json: %v", out, err)
	}
	if len(doc.Workloads) != 1 || doc.Workloads[0].Name != w {
		return window{}, fmt.Errorf("%s/result.json does not hold workload %s alone", out, w)
	}
	r := doc.Workloads[0]
	win := window{attempted: r.Attempted, failed: r.Failed, values: map[string]float64{},
		host: fmt.Sprintf("%d vCPU, GOMAXPROCS %d, %d DMT threads, %s", doc.Host.NProc, doc.Host.GOMAXPROCS, doc.Host.Threads, doc.Host.GoVersion)}
	for _, m := range append(r.EndToEnd, r.RawTimes...) {
		win.values[m.Name] = m.Value
	}
	return win, nil
}

// measure runs the pairs and returns the ledger's workloads and verdicts, and
// the host the windows describe.
func measure(cfg *config) (map[string]*workloadLedger, map[string]map[string]string, string, error) {
	wls, verdicts, host := map[string]*workloadLedger{}, map[string]map[string]string{}, ""
	for _, w := range cfg.workloads {
		var wins both[[]window]
		for i := 1; i <= cfg.pairs; i++ {
			sides := []string{"parent", "change"}
			if i%2 == 0 {
				slices.Reverse(sides)
			}
			for _, s := range sides {
				dir, list := cfg.dirs.Parent, &wins.Parent
				if s == "change" {
					dir, list = cfg.dirs.Change, &wins.Change
				}
				win, err := runWindow(cfg, dir, w, filepath.Join(cfg.work, "out", fmt.Sprintf("%s-%02d-%s", w, i, s)))
				if err != nil {
					return nil, nil, "", err
				}
				host = win.host
				*list = append(*list, win)
				fmt.Fprintf(os.Stderr, "pairs: %s pair %d/%d %s: run_x_p50 %.4g, host probe %.4g us\n",
					w, i, cfg.pairs, s, win.values["run_x_p50"], win.values["host_probe_us"])
			}
		}
		wl := &workloadLedger{Pairs: cfg.pairs, Metrics: map[string]*metricLedger{}, PerWindow: map[string]both[[]float64]{}}
		values := func(ws []window, name string) []float64 {
			out := make([]float64, len(ws))
			for i, win := range ws {
				out[i] = round(win.values[name], 4)
			}
			return out
		}
		for i := range wins.Parent {
			p, c := wins.Parent[i], wins.Change[i]
			wl.Attempted.Parent += p.attempted
			wl.Attempted.Change += c.attempted
			wl.Failed.Parent += p.failed
			wl.Failed.Change += c.failed
		}
		wl.Correct = both[bool]{wl.Failed.Parent == 0, wl.Failed.Change == 0}
		verdicts[w] = map[string]string{}
		for _, def := range cfg.metrics {
			m := summarize(def.Unit, values(wins.Parent, def.Name), values(wins.Change, def.Name))
			wl.Metrics[def.Name] = m
			verdicts[w][def.Name] = verdict(m, def)
		}
		for _, name := range perWindow {
			wl.PerWindow[name] = both[[]float64]{values(wins.Parent, name), values(wins.Change, name)}
		}
		wls[w] = wl
	}
	return wls, verdicts, host, nil
}

// summarize computes a metric's medians, pair counts and parent IQR.
func summarize(unit string, parent, change []float64) *metricLedger {
	m := &metricLedger{Unit: unit, Parent: parent, Change: change}
	pm, cm := quantile(parent, 0.5), quantile(change, 0.5)
	m.ParentMedian, m.ChangeMedian = round(pm, 4), round(cm, 4)
	m.ParentIQR = round(quantile(parent, 0.75)-quantile(parent, 0.25), 4)
	if pm != 0 {
		m.DeltaPct = round((cm-pm)/pm*100, 2)
	}
	for i := range parent {
		switch {
		case change[i] < parent[i]:
			m.ChangeLowerIn++
		case change[i] > parent[i]:
			m.ChangeHigherIn++
		}
	}
	return m
}

// verdict words a metric as BENCH_35.json does.
func verdict(m *metricLedger, def bounded) string {
	n, gap := len(m.Parent), m.ChangeMedian-m.ParentMedian
	moved := "no resolved change"
	switch {
	case 10*m.ChangeLowerIn >= 9*n && -gap > m.ParentIQR:
		moved = "lower (>=9/10, gap > parent IQR)"
	case 10*m.ChangeHigherIn >= 9*n && gap > m.ParentIQR:
		moved = "higher (>=9/10, gap > parent IQR)"
	}
	if strings.HasPrefix(moved, def.Better) {
		return moved
	}
	worse := gap
	if def.Better == "higher" {
		worse = -gap
	}
	if m.ParentMedian != 0 && worse/math.Abs(m.ParentMedian) > def.Bound {
		return moved + ", beyond bound"
	}
	return moved + ", within bound"
}

// quantile is the inclusive (linear) quantile q of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func round(x float64, places int) float64 {
	p := math.Pow(10, float64(places))
	return math.Round(x*p) / p
}

// summary renders the ledger in at most 30 lines of markdown.
func summary(l *ledger, order []string, metrics []bounded) string {
	var b strings.Builder
	fmt.Fprintf(&b, "**BENCH_%d.json**: %s\n\n", l.PR, l.Title)
	probes := []float64{}
	for _, w := range order {
		pw := l.Workloads[w].PerWindow["host_probe_us"]
		probes = append(append(probes, pw.Parent...), pw.Change...)
	}
	fmt.Fprintf(&b, "Parent `%.10s`, %d alternating pairs of `bench/run.sh` windows per workload; host probe %.0f–%.0f µs.\n",
		l.Parent, l.Workloads[order[0]].Pairs, slices.Min(probes), slices.Max(probes))
	if c := l.Claim; c != nil {
		fmt.Fprintf(&b, "Claim: `%s` `%s` %s, %s.\n", c.Workload, c.Metric, c.Direction, c.By)
	}
	b.WriteString("\n| workload | metric | parent | change | Δ | lower in | parent IQR | verdict |\n|---|---|---|---|---|---|---|---|\n")
	for _, w := range order {
		for _, def := range metrics {
			m := l.Workloads[w].Metrics[def.Name]
			fmt.Fprintf(&b, "| `%s` | `%s` | %s | %s | %+.2f%% | %d of %d | %s | %s |\n", w, def.Name,
				digits4(m.ParentMedian), digits4(m.ChangeMedian), m.DeltaPct, m.ChangeLowerIn, len(m.Parent), digits4(m.ParentIQR), l.Verdict[w][def.Name])
		}
	}
	return b.String()
}

// digits4 prints x to four significant digits, or as a whole number when it
// has more before the point.
func digits4(x float64) string {
	places := 3
	if x != 0 {
		places = max(0, 3-int(math.Floor(math.Log10(math.Abs(x)))))
	}
	return strconv.FormatFloat(x, 'f', places, 64)
}

// unpack writes revision rev of the repository into dir and returns its full
// hash.
func unpack(rev, dir string) (string, error) {
	out, err := exec.Command("git", "rev-parse", "--verify", rev+"^{commit}").Output()
	if err != nil {
		return "", fmt.Errorf("git rev-parse %s: %v", rev, err)
	}
	hash := strings.TrimSpace(string(out))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	archive, err := exec.Command("git", "archive", hash).Output()
	if err != nil {
		return "", fmt.Errorf("git archive %s: %v", rev, err)
	}
	tar := exec.Command("tar", "-x", "-C", dir)
	tar.Stdin, tar.Stderr = bytes.NewReader(archive), os.Stderr
	return hash, tar.Run()
}

// options are the command's flags.
type options struct {
	parent, change, workloads string
	pairs, pr                 int
	seconds                   float64
	title, claim, by, work    string
}

func main() {
	var o options
	flag.StringVar(&o.parent, "parent", "", "the parent revision")
	flag.StringVar(&o.change, "change", "", "the change's revision (`git stash create` names an uncommitted tree)")
	flag.StringVar(&o.workloads, "workload", "", "workloads to run, comma-separated, in order")
	flag.IntVar(&o.pairs, "n", 10, "pairs per workload")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of each window")
	flag.IntVar(&o.pr, "pr", 0, "the ledger's number: it is written to BENCH_<pr>.json")
	flag.StringVar(&o.title, "title", "", "the change's title")
	flag.StringVar(&o.claim, "claim", "", "the claimed metric as workload/metric; none writes \"claim\": null")
	flag.StringVar(&o.by, "by", ">= 9 of 10 pairs lower, medians further apart than the parent IQR", "the claim's size, in words")
	flag.StringVar(&o.work, "work", filepath.Join(os.TempDir(), "pairs"), "scratch directory for both checkouts and every window's result")
	flag.Parse()
	if err := o.run(); err != nil {
		fmt.Fprintln(os.Stderr, "pairs:", err)
		os.Exit(1)
	}
}

func (o *options) run() error {
	if o.parent == "" || o.change == "" || o.workloads == "" || o.pr == 0 || o.pairs < 1 {
		return errors.New("need -parent, -change, -workload, -pr and -n ≥ 1")
	}
	var spec struct {
		EndToEnd []bounded `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		return fmt.Errorf("BENCHMARK.json (run from the repository root): %v", err)
	}
	work, err := filepath.Abs(o.work)
	if err != nil {
		return err
	}
	cfg := &config{bench: []string{"bash", "bench/run.sh"}, workloads: strings.Split(o.workloads, ","),
		pairs: o.pairs, seconds: o.seconds, work: work, metrics: spec.EndToEnd,
		dirs: both[string]{filepath.Join(work, "parent"), filepath.Join(work, "change")}}
	l := &ledger{PR: o.pr, Title: o.title}
	if l.Parent, err = unpack(o.parent, cfg.dirs.Parent); err != nil {
		return err
	}
	if _, err := unpack(o.change, cfg.dirs.Change); err != nil {
		return err
	}
	if o.claim != "" {
		w, metric, _ := strings.Cut(o.claim, "/")
		i := slices.IndexFunc(spec.EndToEnd, func(b bounded) bool { return b.Name == metric })
		if i < 0 || !slices.Contains(cfg.workloads, w) {
			return fmt.Errorf("-claim %s: not a measured workload and BENCHMARK.json end-to-end metric", o.claim)
		}
		l.Claim = &claim{w, metric, spec.EndToEnd[i].Better, o.by}
	}
	var host string
	if l.Workloads, l.Verdict, host, err = measure(cfg); err != nil {
		return err
	}
	l.Protocol = fmt.Sprintf("Alternating parent/change windows of the benchmark binary that `bash bench/run.sh` builds in each "+
		"checkout (`git archive` of %.10s and of the change into their own directories, each building with its own cache), run as "+
		"`--workload W --seconds %g --trace 0` at the default seed, parent first in odd pairs and change first in even pairs; "+
		"%d pairs per workload, %s in that order, every window reported, none dropped; %s. Quartiles are the inclusive "+
		"(linear) method. `per_window` records host_probe_us and run_ms_p50 beside every window, so x values compare only "+
		"within this file. Written by `go run ./scripts/pairs`.",
		l.Parent, o.seconds, o.pairs, strings.Join(cfg.workloads, ", "), host)
	out, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(fmt.Sprintf("BENCH_%d.json", o.pr), append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Print(summary(l, cfg.workloads, cfg.metrics))
	return nil
}
