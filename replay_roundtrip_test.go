package rfdet_test

import (
	"testing"

	"rfdet"
	"rfdet/internal/replay"
)

// Replay round-trip, mirroring §2's DMT-vs-R+R comparison: the pthreads
// recorder/replayer must round-trip a schedule-dependent program — replays
// reproduce the recorded observations AND the recorded virtual time (virtual
// time is a pure function of the sync order the log pins down). RFDet needs
// no log at all; the seed-regression wall pins its traces.

// roundTripProgram is race-free but schedule-dependent: the final value of x
// encodes the order in which workers won the lock.
func roundTripProgram(t rfdet.Thread) {
	x := t.Malloc(8)
	mu := rfdet.Addr(64)
	var ids []rfdet.ThreadID
	for w := 0; w < 4; w++ {
		me := uint64(w + 1)
		ids = append(ids, t.Spawn(func(c rfdet.Thread) {
			for k := 0; k < 8; k++ {
				c.Lock(mu)
				c.Store64(x, c.Load64(x)*7+me) // non-commutative
				c.Unlock(mu)
			}
		}))
	}
	for _, id := range ids {
		t.Join(id)
	}
	t.Observe(t.Load64(x))
}

func TestReplayRoundTripReproducesVirtualTime(t *testing.T) {
	recRep, log, err := replay.NewRecorder().Record(roundTripProgram)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		repRep, err := replay.NewReplayer(log).Run(roundTripProgram)
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if repRep.VirtualTime != recRep.VirtualTime {
			t.Fatalf("replay %d: virtual time %d, recorded %d — the log did not pin the schedule",
				i, repRep.VirtualTime, recRep.VirtualTime)
		}
		if got, want := repRep.Observations[0][0], recRep.Observations[0][0]; got != want {
			t.Fatalf("replay %d: observed %d, recorded %d", i, got, want)
		}
	}
}
