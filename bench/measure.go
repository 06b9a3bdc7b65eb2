package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"rfdet"
	"rfdet/internal/stats"
)

// metric is one named value of the result document. Samples is how many
// measurements the value summarises; Spread, for end-to-end metrics, is the
// quartile spread of the value recomputed on each fifth of the timed window
// (each repetition, for setup_s) — what -compare needs to call a difference
// resolved.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Spread  float64 `json:"spread,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// warmups is the number of untimed executions that end a setup, so that page
// buffers, arena chunks and the Go heap are at their steady size before the
// first timed execution.
const warmups = 3

// giveUp is how many executions may fail, with none succeeding, before a
// pass stops instead of failing until its time is up.
const giveUp = 10

// segments is how many consecutive parts the timed window is split into for
// the recorded spread.
const segments = 5

// harness is the state one invocation's measurements share.
type harness struct {
	rec   *recorder
	procs int // GOMAXPROCS of timed executions
}

// setup is the correctness gate plus warm-up. Each input runs once at
// GOMAXPROCS=1 and once at the timed value; both replicas must agree with
// each other and, where the workload's pin covers the input, with the pin.
// It returns the fingerprint every later execution of each input must equal.
func (h *harness) setup(w *workload, inputs []uint64) ([]fingerprint, error) {
	opts := rfdet.DefaultOptions()
	opts.Validate = w.validate
	want := make([]fingerprint, len(inputs))
	id := h.rec.begin("fingerprint-check", w.name)
	for i, in := range inputs {
		runtime.GOMAXPROCS(1)
		serial, err := runFingerprint(opts, w.prog(in), w.seeded)
		runtime.GOMAXPROCS(h.procs)
		if err != nil {
			return nil, fmt.Errorf("%s input %#x at GOMAXPROCS=1: %w", w.name, in, err)
		}
		if want[i], err = runFingerprint(opts, w.prog(in), w.seeded); err != nil {
			return nil, fmt.Errorf("%s input %#x at GOMAXPROCS=%d: %w", w.name, in, h.procs, err)
		}
		if serial != want[i] {
			return nil, fmt.Errorf("%s input %#x: fingerprint %+v at GOMAXPROCS=1, %+v at %d", w.name, in, serial, want[i], h.procs)
		}
		if w.pinned(in) && want[i] != w.pin {
			return nil, fmt.Errorf("%s input %#x: fingerprint %+v, pinned %+v", w.name, in, want[i], w.pin)
		}
	}
	h.rec.end(id)
	id = h.rec.begin("warm-up", w.name)
	rt := rfdet.New(rfdet.DefaultOptions())
	for i := 0; i < warmups; i++ {
		if _, err := rt.Run(w.prog(inputs[i%len(inputs)])); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
	}
	h.rec.end(id)
	return want, nil
}

// execution is one timed Runtime.Run.
type execution struct {
	ms     float64 // wall time of Runtime.Run
	ratio  float64 // host nanoseconds per pinned virtual nanosecond
	report *rfdet.Report
}

// execute runs input i of the workload once inside a span and checks it.
// A failed execution has a nil report.
func (h *harness) execute(rt rfdet.Runtime, w *workload, inputs []uint64, want []fingerprint, i int) execution {
	i %= len(inputs)
	id := h.rec.begin("run", w.name)
	rep, err := rt.Run(w.prog(inputs[i]))
	dur := h.rec.end(id)
	if err == nil {
		var got fingerprint
		if got, err = fingerprintOf(rep, w.seeded); err == nil && got != want[i] {
			err = fmt.Errorf("fingerprint %+v, want %+v", got, want[i])
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAILED %s input %#x: %v\n", w.name, inputs[i], err)
		return execution{}
	}
	return execution{ms: float64(dur) / 1e6, ratio: float64(dur) / float64(want[i].VirtualTime), report: rep}
}

// probeEvery is how often the timed window stops to take a host probe.
const probeEvery = 250 * time.Millisecond

// hostProbe times batches of ten 2-microsecond sleeps and returns the median
// batch in microseconds; the first batches after real work run long, the
// median of twenty does not see them. It touches nothing of the runtime
// under test. What it measures — how long this host takes to wake an idle
// vCPU — rises and falls with the host phases that move every workload's
// times together (r = 0.9 on 20 s medians, about in proportion), which is
// what makes it a usable unit.
func (h *harness) hostProbe(workload string) float64 {
	id := h.rec.begin("host-probe", workload)
	batches := make([]float64, 20)
	for b := range batches {
		start := stats.Now()
		for i := 0; i < 10; i++ {
			time.Sleep(2 * time.Microsecond)
		}
		batches[b] = float64(stats.Since(start)) / 1e3
	}
	h.rec.end(id)
	return median(batches)
}

// segment is one part of the timed window.
type segment struct {
	ms, ratio      []float64 // per execution
	probeUs        []float64 // per host probe
	wall           time.Duration
	mallocs, bytes uint64
}

func (s *segment) add(o *segment) {
	s.ms = append(s.ms, o.ms...)
	s.ratio = append(s.ratio, o.ratio...)
	s.probeUs = append(s.probeUs, o.probeUs...)
	s.wall += o.wall
	s.mallocs += o.mallocs
	s.bytes += o.bytes
}

// probe is the segment's host probe: the median of the probes taken in it.
func (s *segment) probe() float64 { return median(s.probeUs) }

// timedWindow executes the workload back to back for d with tracing off and
// returns the window's segments and how many executions were attempted and
// failed. The collector runs once before the clock starts so that every
// window begins from the same heap state.
func (h *harness) timedWindow(w *workload, inputs []uint64, want []fingerprint, d time.Duration) (segs []segment, attempted, failed int) {
	rt := rfdet.New(rfdet.DefaultOptions())
	runtime.GC()
	var mst runtime.MemStats
	id := h.rec.begin("timed-window", w.name)
	defer func() { h.rec.end(id) }()
	start := stats.Now()
	for k := 1; k <= segments; k++ {
		var seg segment
		runtime.ReadMemStats(&mst)
		mallocs, bytes := mst.Mallocs, mst.TotalAlloc
		segStart := stats.Now()
		var probed time.Time
		// Every segment holds at least one execution, however short d is.
		for end := d * time.Duration(k) / segments; len(seg.ms) == 0 || stats.Since(start) < end; {
			if len(seg.probeUs) == 0 || stats.Since(probed) >= probeEvery {
				seg.probeUs = append(seg.probeUs, h.hostProbe(w.name))
				probed = stats.Now()
			}
			e := h.execute(rt, w, inputs, want, attempted)
			attempted++
			if e.report == nil {
				if failed++; failed == attempted && failed >= giveUp {
					return nil, attempted, failed
				}
				continue
			}
			seg.ms = append(seg.ms, e.ms)
			seg.ratio = append(seg.ratio, e.ratio)
		}
		seg.wall = stats.Since(segStart)
		runtime.ReadMemStats(&mst)
		seg.mallocs, seg.bytes = mst.Mallocs-mallocs, mst.TotalAlloc-bytes
		segs = append(segs, seg)
	}
	return segs, attempted, failed
}

// maxSetups caps the repetitions of a cheap workload's setup.
const maxSetups = 25

// setups repeats setup at least reps times, and on until spend has gone by
// or maxSetups are done, so that the median of a 25 ms setup rests on as much
// measuring as that of a 1 s one. It returns the last repetition's
// fingerprints and every repetition's duration in seconds, whose median is
// setup_s.
func (h *harness) setups(w *workload, inputs []uint64, reps int, spend time.Duration) (want []fingerprint, seconds []float64, err error) {
	for start := stats.Now(); len(seconds) < reps || (stats.Since(start) < spend && len(seconds) < maxSetups); {
		id := h.rec.begin("setup", w.name)
		if want, err = h.setup(w, inputs); err != nil {
			return nil, nil, err
		}
		seconds = append(seconds, h.rec.end(id).Seconds())
	}
	return want, seconds, nil
}

// measureEndToEnd is the tracing-off half of a workload: the timed window,
// reported with the setups that preceded it. Each value is computed on the
// whole window; its spread is that of the same value computed per segment.
func (h *harness) measureEndToEnd(w *workload, inputs []uint64, want []fingerprint, setups []float64, window time.Duration) (bounded, raw []metric, attempted, failed int) {
	segs, attempted, failed := h.timedWindow(w, inputs, want, window)
	if len(segs) == 0 {
		return nil, nil, attempted, failed
	}
	var whole segment
	for i := range segs {
		whole.add(&segs[i])
	}
	bounded = append(bounded, metric{Name: setupMetric.name, Unit: setupMetric.unit,
		Value: median(setups), Samples: len(setups), Spread: quartileSpread(setups)})
	_, p90Err := percentile(sorted(whole.ms), 90)
	for _, def := range windowMetrics {
		perSeg := make([]float64, len(segs))
		for i := range segs {
			perSeg[i] = def.value(&segs[i])
		}
		mt := metric{Name: def.name, Unit: def.unit, Value: def.value(&whole), Samples: len(whole.ms), Spread: quartileSpread(perSeg)}
		if p90Err != nil && strings.HasSuffix(def.name, "_p90") {
			mt.Note = p90Err.Error()
		}
		if def.bounded {
			bounded = append(bounded, mt)
		} else {
			raw = append(raw, mt)
		}
	}
	return bounded, raw, attempted, failed
}

// measureTraced is the per-layer half of a workload. Executions alternate
// between tracing off and Options.PhaseTrace on, so the two medians that
// make trace.overhead_pct see the same host conditions. Every other value
// is the median, over the traced executions, of a figure read from that
// execution's Report.Phases and Report.Stats; a failed pair counts once.
// leqNs is the layer pass's vclock.leq_ns, which prices
// core.collect_scan_est_ms.
func (h *harness) measureTraced(w *workload, inputs []uint64, want []fingerprint, d time.Duration, leqNs float64) (out []metric, attempted, failed int) {
	plain := rfdet.New(rfdet.DefaultOptions())
	opts := rfdet.DefaultOptions()
	opts.PhaseTrace = true
	traced := rfdet.New(opts)

	cols := make([][]float64, len(tracedMetrics))
	var plainMs, tracedMs []float64
	id := h.rec.begin("traced-pass", w.name)
	// At least one execution of each kind, however short d is.
	for start := stats.Now(); attempted == 0 || stats.Since(start) < d; {
		p := h.execute(plain, w, inputs, want, attempted/2)
		t := h.execute(traced, w, inputs, want, attempted/2)
		attempted += 2
		if p.report == nil || t.report == nil {
			if failed++; len(tracedMs) == 0 && failed >= giveUp {
				break
			}
			continue
		}
		plainMs = append(plainMs, p.ms)
		tracedMs = append(tracedMs, t.ms)
		x := summarise(t.report, leqNs)
		for m, def := range tracedMetrics {
			if def.read != nil {
				cols[m] = append(cols[m], def.read(x))
			}
		}
	}
	h.rec.end(id)
	if len(tracedMs) == 0 {
		return nil, attempted, failed
	}
	for m, def := range tracedMetrics {
		mt := metric{Name: def.name, Unit: def.unit, Samples: len(tracedMs), Note: tracedNotes[def.name]}
		if def.read != nil {
			mt.Value = median(cols[m])
		} else {
			mt.Value = (median(tracedMs)/median(plainMs) - 1) * 100
		}
		out = append(out, mt)
	}
	return out, attempted, failed
}
