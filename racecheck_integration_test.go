package rfdet_test

import (
	"io"
	"runtime"
	"testing"

	"rfdet"
	"rfdet/internal/harness"
	"rfdet/internal/racecheck"
	"rfdet/internal/workloads"
)

// raceyRaceReport runs racey under the race detector and returns the report.
func raceyRaceReport(t *testing.T) *racecheck.Report {
	t.Helper()
	racey, err := workloads.ByName("racey")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rfdet.NewCIRace().Run(racey.Prog(seedConfig))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Races == nil {
		t.Fatal("RaceDetect runtime produced no race report")
	}
	// Detection must be strictly observational: the deterministic artifacts
	// match the goldens captured without it.
	if rep.OutputHash != goldenRaceyOutput || rep.VirtualTime != goldenRaceyVTime {
		t.Fatalf("racecheck perturbed execution: output=%#x vtime=%d, seed output=%#x vtime=%d",
			rep.OutputHash, rep.VirtualTime, goldenRaceyOutput, goldenRaceyVTime)
	}
	return rep.Races
}

// TestRaceDetectRaceyFindsBoth requires the detector to find racey's seeded
// races of both kinds — write/write and read/write — and the report to be
// byte-identical at every GOMAXPROCS from 1 to 8.
func TestRaceDetectRaceyFindsBoth(t *testing.T) {
	var want string
	for _, p := range []int{1, 2, 4, 8} {
		old := runtime.GOMAXPROCS(p)
		races := raceyRaceReport(t)
		runtime.GOMAXPROCS(old)
		var ww, rw int
		for _, r := range races.Races {
			switch r.Kind {
			case racecheck.WriteWrite:
				ww++
			case racecheck.ReadWrite:
				rw++
			}
		}
		if ww == 0 || rw == 0 {
			t.Fatalf("P=%d: expected both race kinds, got %d write/write and %d read/write", p, ww, rw)
		}
		if got := races.String(); want == "" {
			want = got
		} else if got != want {
			t.Fatalf("P=%d: race report differs from P=1's:\n%s\nvs\n%s", p, got, want)
		}
	}
}

// TestRaceDetectReportStability reruns detection 20 times on one runtime
// instance: every report hash must be identical (the cmd/racey -detect
// contract).
func TestRaceDetectReportStability(t *testing.T) {
	runs := 20
	if testing.Short() {
		runs = 5
	}
	var want uint64
	for i := 0; i < runs; i++ {
		h := raceyRaceReport(t).Hash()
		if i == 0 {
			want = h
			continue
		}
		if h != want {
			t.Fatalf("run %d: report hash %#x != %#x", i, h, want)
		}
	}
}

// TestRaceDetectLitmusClassification drives the harness race table, which
// checks every litmus kernel against its static classification: racy kernels
// report races, race-free kernels report exactly zero, the byte-merge blind
// spot reports zero, and every report is run twice and byte-compared.
func TestRaceDetectLitmusClassification(t *testing.T) {
	if err := harness.RaceTable(io.Discard, workloads.SizeTest, 4); err != nil {
		t.Fatal(err)
	}
}

// TestRaceDetectOffByDefault: without Options.RaceDetect the report is absent
// and no access records are kept.
func TestRaceDetectOffByDefault(t *testing.T) {
	racey, err := workloads.ByName("racey")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rfdet.NewCI().Run(racey.Prog(seedConfig))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Races != nil {
		t.Fatal("race report present with RaceDetect off")
	}
	if rep.Stats.RaceRecords != 0 || rep.Stats.RaceReadBytes != 0 {
		t.Fatalf("race counters nonzero with RaceDetect off: %d records, %d bytes",
			rep.Stats.RaceRecords, rep.Stats.RaceReadBytes)
	}
}

// TestRaceDetectReportAcrossGOMAXPROCS: the deterministic race report is an
// observable like any other — it must be byte-identical at every GOMAXPROCS.
// Access recording happens turn-held at commit time, so the report order
// cannot depend on how the host interleaved the threads.
func TestRaceDetectReportAcrossGOMAXPROCS(t *testing.T) {
	racey, err := workloads.ByName("racey")
	if err != nil {
		t.Fatal(err)
	}
	opts := rfdet.DefaultOptions()
	opts.RaceDetect = true
	var want string
	for _, p := range []int{1, 4, 8} {
		old := runtime.GOMAXPROCS(p)
		rep, err := rfdet.New(opts).Run(racey.Prog(seedConfig))
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if rep.Races == nil {
			t.Fatalf("P=%d: no race report", p)
		}
		got := rep.Races.String()
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("P=%d: race report differs from the P=1 report:\n%s\nvs\n%s", p, got, want)
		}
	}
}
