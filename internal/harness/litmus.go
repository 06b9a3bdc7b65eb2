package harness

import (
	"fmt"
	"io"

	"rfdet"
	"rfdet/internal/litmus"
	"rfdet/internal/pthreads"
)

// LitmusTable renders the DLRC memory-model litmus results (§3): for each
// classic litmus shape, the single deterministic RFDet outcome next to the
// outcomes the nondeterministic pthreads baseline produced, marking where
// DLRC is more relaxed than sequential consistency.
func LitmusTable(out io.Writer, runs int) error {
	fmt.Fprintf(out, "DLRC memory-model litmus results (§3; pthreads sampled %d times)\n\n", runs)
	fmt.Fprintf(out, "%-12s %-26s %-34s %s\n", "litmus", "DLRC (every run)", "pthreads (distinct outcomes)", "notes")
	for _, tst := range litmus.Tests() {
		rfdetOutcomes, err := litmus.Observe(rfdet.NewCI(), tst, 3)
		if err != nil {
			return err
		}
		if len(rfdetOutcomes) != 1 {
			return fmt.Errorf("harness: litmus %s nondeterministic under RFDet: %v", tst.Name, rfdetOutcomes)
		}
		if rfdetOutcomes[0] != tst.DLRC {
			return fmt.Errorf("harness: litmus %s observed %q, model predicts %q", tst.Name, rfdetOutcomes[0], tst.DLRC)
		}
		scOutcomes, err := litmus.Observe(pthreads.New(), tst, runs)
		if err != nil {
			return err
		}
		note := "SC-allowed outcome"
		if tst.DLRCRelaxed {
			note = "relaxed beyond SC (isolation/byte merge)"
		}
		fmt.Fprintf(out, "%-12s %-26s %-34s %s\n",
			tst.Name, string(rfdetOutcomes[0]), renderOutcomes(scOutcomes), note)
	}
	fmt.Fprintln(out, "\nEvery DLRC outcome is fixed across runs and configurations; pthreads varies")
	fmt.Fprintln(out, "within sequential consistency. Relaxed rows show §3's point: DLRC may be")
	fmt.Fprintln(out, "weaker than SC for racy code, while staying deterministic and C++-valid.")
	return nil
}

func renderOutcomes(outs []litmus.Outcome) string {
	if len(outs) == 1 {
		return string(outs[0])
	}
	s := ""
	for i, o := range outs {
		if i > 0 {
			s += " | "
		}
		s += string(o)
	}
	return s
}
