// Command rfdet-run executes one benchmark workload on one runtime and
// prints the full execution report: observations, output hash, virtual and
// wall time, and every non-zero api.Stats counter by layer. With -trace (RFDet
// runtimes only) it also dumps the deterministic synchronization schedule —
// the event-level witness of determinism. With -phases out.json (RFDet
// runtimes only) it writes the first execution's phase timeline as
// Chrome-trace JSON, loadable in chrome://tracing or Perfetto, and exits 1 if
// the bytes written fail trace.ValidateChrome.
//
//	rfdet-run -workload ocean -runtime rfdet-ci -threads 4 -size small
//	rfdet-run -workload racey -runtime pthreads -repeat 5
//	rfdet-run -workload dedup -trace | head -50
//	rfdet-run -workload racey -racecheck
//	rfdet-run -workload fft -size test -phases fft-phases.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"rfdet/internal/api"
	"rfdet/internal/core"
	"rfdet/internal/dthreads"
	"rfdet/internal/pthreads"
	"rfdet/internal/trace"
	"rfdet/internal/workloads"
)

func main() {
	workload := flag.String("workload", "ocean", "benchmark name (see Table 1) or racey")
	rtName := flag.String("runtime", "rfdet-ci", "rfdet-ci, rfdet-pf, dthreads, coredet or pthreads")
	threads := flag.Int("threads", 4, "worker thread count")
	sz := workloads.SizeSmall
	flag.Var(&sz, "size", "problem size: test, small or medium")
	repeat := flag.Int("repeat", 1, "number of executions (reports determinism across them)")
	schedule := flag.Bool("trace", false, "dump the deterministic synchronization schedule (rfdet only)")
	phases := flag.String("phases", "", "write the first execution's Chrome-trace phase timeline to this file and validate it (rfdet only)")
	racecheck := flag.Bool("racecheck", false, "run the happens-before race detector and print its report (rfdet only)")
	quantum := flag.Uint64("quantum", 50000, "coredet quantum in logical instructions")
	flag.Parse()
	if err := checkFlags(*threads, *repeat); err != nil {
		fmt.Fprintf(os.Stderr, "rfdet-run: %v\n", err)
		os.Exit(2)
	}

	w, err := workloads.ByName(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := workloads.Config{Threads: *threads, Size: sz}

	var rt api.Runtime
	var traced *core.Runtime
	switch *rtName {
	case "rfdet-ci", "rfdet-pf":
		opts := core.DefaultOptions()
		if *rtName == "rfdet-pf" {
			opts.Monitor = core.MonitorPF
		}
		opts.Trace = *schedule
		opts.PhaseTrace = *phases != ""
		opts.RaceDetect = *racecheck
		traced = core.New(opts)
		rt = traced
	case "dthreads":
		rt = dthreads.New()
	case "coredet":
		rt = dthreads.NewQuantum(*quantum)
	case "pthreads":
		rt = pthreads.New()
	default:
		fmt.Fprintf(os.Stderr, "rfdet-run: unknown runtime %q\n", *rtName)
		os.Exit(2)
	}
	if traced == nil && (*schedule || *phases != "" || *racecheck) {
		fmt.Fprintln(os.Stderr, "rfdet-run: -trace, -phases and -racecheck require an rfdet runtime")
		os.Exit(2)
	}

	hashes := map[uint64]int{}
	for i := 0; i < *repeat; i++ {
		var rep *api.Report
		var tr *core.Trace
		var err error
		if traced != nil {
			rep, tr, err = traced.RunTraced(w.Prog(cfg))
		} else {
			rep, err = rt.Run(w.Prog(cfg))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rfdet-run: %v\n", err)
			os.Exit(1)
		}
		hashes[rep.OutputHash]++
		if i == 0 {
			printReport(rt.Name(), w.Name, cfg, rep)
			if rep.Races != nil {
				fmt.Printf("\nhappens-before race report (deterministic; hash %#016x):\n", rep.Races.Hash())
				fmt.Print(rep.Races.String())
			}
			if tr != nil {
				fmt.Printf("\ndeterministic schedule (%d events):\n", len(tr.Lines))
				if _, err := tr.WriteTo(os.Stdout); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
			if *phases != "" {
				if err := writePhases(*phases, rep.Phases); err != nil {
					fmt.Fprintf(os.Stderr, "rfdet-run: %v\n", err)
					os.Exit(1)
				}
			}
		}
	}
	if *repeat > 1 {
		fmt.Printf("\n%d executions, %d distinct output hash(es)\n", *repeat, len(hashes))
	}
}

// checkFlags rejects counts no execution can run with.
func checkFlags(threads, repeat int) error {
	switch {
	case threads < 1:
		return fmt.Errorf("-threads must be at least 1, got %d", threads)
	case repeat < 1:
		return fmt.Errorf("-repeat must be at least 1, got %d", repeat)
	}
	return nil
}

// writePhases writes the phase timeline as Chrome-trace JSON to path, checks
// the bytes written with trace.ValidateChrome, and prints the per-phase
// summary.
func writePhases(path string, ph *trace.Report) error {
	var buf bytes.Buffer
	if err := ph.WriteChrome(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("\nphase timeline written to %s (valid Chrome-trace JSON; open in chrome://tracing or https://ui.perfetto.dev):\n", path)
	return ph.WriteSummary(os.Stdout)
}

func printReport(runtime, workload string, cfg workloads.Config, rep *api.Report) {
	fmt.Printf("%s on %s (%d threads, size %s)\n", workload, runtime, cfg.Threads, cfg.Size)
	fmt.Printf("  output hash:   %#016x\n", rep.OutputHash)
	fmt.Printf("  observations:  %v\n", rep.Observations[0])
	fmt.Printf("  virtual time:  %d ns (modeled makespan)\n", rep.VirtualTime)
	fmt.Printf("  wall time:     %v\n", rep.Elapsed)
	fmt.Printf("  threads:       %d\n", rep.Threads)

	// Every non-zero counter, grouped by the layer its api.Stats tag names,
	// layers in the order they first appear there.
	var layers []string
	lines := map[string][]string{}
	rep.Stats.Each(func(f api.StatsField, v uint64) {
		if v == 0 {
			return
		}
		if lines[f.Layer] == nil {
			layers = append(layers, f.Layer)
		}
		line := fmt.Sprintf("    %-24s %d", f.Name, v)
		if f.Host {
			line += " (host-dependent)"
		}
		lines[f.Layer] = append(lines[f.Layer], line)
	})
	for _, layer := range layers {
		fmt.Printf("  %s:\n", layer)
		for _, line := range lines[layer] {
			fmt.Println(line)
		}
	}
}
