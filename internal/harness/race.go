package harness

import (
	"fmt"
	"io"

	"rfdet/internal/api"
	"rfdet/internal/core"
	"rfdet/internal/litmus"
	"rfdet/internal/workloads"
)

// stableRaceReport runs a program n times on RFDet-ci with the race detector
// on (run executes it once on the runtime it is given) and returns the first
// run's report. Every run must carry a race report, byte-identical to the
// first: the detector's output is a pure function of the program.
func stableRaceReport(name string, n int, run func(api.Runtime) (*api.Report, error)) (*api.Report, error) {
	opts := core.DefaultOptions()
	opts.RaceDetect = true
	var first *api.Report
	for i := 0; i < n; i++ {
		rep, err := run(core.New(opts))
		if err != nil {
			return nil, err
		}
		if rep.Races == nil {
			return nil, fmt.Errorf("harness: %s ran without a race report", name)
		}
		if first == nil {
			first = rep
		} else if rep.Races.String() != first.Races.String() {
			return nil, fmt.Errorf("harness: %s race report diverged on run %d:\n%s\nvs\n%s",
				name, i, rep.Races, first.Races)
		}
	}
	return first, nil
}

// RaceTable renders the happens-before race-detection artifact: the litmus
// suite, the racey stress at 2, 4 and 8 threads and the KV server classified
// by the detector. Each kernel's race count is checked against its static
// classification (litmus.Test.Racy / RaceInvisible), and every kernel is run
// runs times with the report byte-compared (stableRaceReport).
func RaceTable(out io.Writer, size workloads.Size, threads, runs int) error {
	fmt.Fprintf(out, "Happens-before race detection (RFDet-ci + RaceDetect, deterministic report)\n\n")
	fmt.Fprintf(out, "%-12s %8s %10s %-12s %s\n", "kernel", "races", "accesses", "verdict", "notes")

	for _, tst := range litmus.Tests() {
		rep, err := stableRaceReport(tst.Name, runs, func(rt api.Runtime) (*api.Report, error) {
			return litmus.RunReport(rt, tst)
		})
		if err != nil {
			return err
		}
		races := len(rep.Races.Races)
		var verdict, note string
		switch {
		case tst.Racy && tst.RaceInvisible:
			note = "racy, but changed bytes never overlap (§4.6 exclusion)"
			verdict = "blind spot"
			if races != 0 {
				return fmt.Errorf("harness: litmus %s: %d races reported for a byte-invisible race", tst.Name, races)
			}
		case tst.Racy:
			note = "data race by construction"
			verdict = "RACY"
			if races == 0 {
				return fmt.Errorf("harness: litmus %s: racy kernel reported no races", tst.Name)
			}
		default:
			note = "fully synchronized"
			verdict = "race-free"
			if races != 0 {
				return fmt.Errorf("harness: litmus %s: %d false races on a race-free kernel:\n%s",
					tst.Name, races, rep.Races)
			}
		}
		fmt.Fprintf(out, "%-12s %8d %10d %-12s %s\n",
			tst.Name, races, rep.Races.AccessesRecorded, verdict, note)
	}

	racey, err := workloads.ByName("racey")
	if err != nil {
		return err
	}
	for _, n := range []int{2, 4, 8} {
		cfg := workloads.Config{Threads: n, Size: size}
		rep, err := stableRaceReport("racey", runs, func(rt api.Runtime) (*api.Report, error) {
			return rt.Run(racey.Prog(cfg))
		})
		if err != nil {
			return err
		}
		if len(rep.Races.Races) == 0 {
			return fmt.Errorf("harness: racey at %d threads reported no races", n)
		}
		fmt.Fprintf(out, "%-12s %8d %10d %-12s %s\n", "racey", len(rep.Races.Races),
			rep.Races.AccessesRecorded, "RACY", fmt.Sprintf("§5.1 stress, %d threads; report hash %#016x", n, rep.Races.Hash()))
	}

	// The KV server: a full server-shaped execution — queue, shard locks,
	// barrier, atomics — that the detector must certify race-free. Every
	// response slot is written by exactly one worker and read only after the
	// joins, so any reported race is a detector false positive or a real
	// synchronization bug in the workload.
	server, err := workloads.ByName("server")
	if err != nil {
		return err
	}
	cfg := workloads.Config{Threads: threads, Size: size}
	rep, err := stableRaceReport("server", runs, func(rt api.Runtime) (*api.Report, error) {
		return rt.Run(server.Prog(cfg))
	})
	if err != nil {
		return err
	}
	if n := len(rep.Races.Races); n != 0 {
		return fmt.Errorf("harness: server: %d races on the data-race-free KV server:\n%s", n, rep.Races)
	}
	fmt.Fprintf(out, "%-12s %8d %10d %-12s %s\n", "server", 0,
		rep.Races.AccessesRecorded, "race-free",
		fmt.Sprintf("KV server, %d workers: fully synchronized, order-dependent", threads))

	fmt.Fprintf(out, "\nEvery kernel was run %d times and its race report byte-compared: the report is\n", runs)
	fmt.Fprintln(out, "a deterministic artifact, like the output hash. \"blind spot\" rows are racy")
	fmt.Fprintln(out, "programs whose racing stores change disjoint or identical bytes — invisible")
	fmt.Fprintln(out, "to byte-granularity happens-before detection by design (DESIGN.md §12).")
	return nil
}
