package workloads

import (
	"testing"

	"rfdet/internal/api"
	"rfdet/internal/core"
	"rfdet/internal/dthreads"
	"rfdet/internal/pthreads"
)

func runtimes() []api.Runtime {
	pf := core.DefaultOptions()
	pf.Monitor = core.MonitorPF
	return []api.Runtime{
		pthreads.New(),
		dthreads.New(),
		core.New(core.DefaultOptions()),
		core.New(pf),
	}
}

// TestAllWorkloadsRunEverywhere executes every kernel at test size on every
// runtime and checks that the race-free kernels produce identical
// observations and output hashes on all of them — the cross-runtime oracle
// for both the kernels and the runtimes. The output hash folds in each
// runtime's final memory image (thread 0's space, DThreads' global store,
// pthreads' one shared space), so it holds the runtimes' memory paths to
// one answer too.
func TestAllWorkloadsRunEverywhere(t *testing.T) {
	cfg := Config{Threads: 2, Size: SizeTest}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			var ref []uint64
			var refHash uint64
			for _, rt := range runtimes() {
				rep, err := rt.Run(w.Prog(cfg))
				if err != nil {
					t.Fatalf("%s on %s: %v", w.Name, rt.Name(), err)
				}
				obs := rep.Observations[0]
				if len(obs) == 0 {
					t.Fatalf("%s on %s: no observations", w.Name, rt.Name())
				}
				if ref == nil {
					ref, refHash = obs, rep.OutputHash
					continue
				}
				if w.RaceFree {
					if rep.OutputHash != refHash {
						t.Fatalf("%s on %s: output hash %#x, pthreads got %#x", w.Name, rt.Name(), rep.OutputHash, refHash)
					}
					if len(obs) != len(ref) {
						t.Fatalf("%s on %s: %d observations, want %d", w.Name, rt.Name(), len(obs), len(ref))
					}
					for i := range obs {
						if obs[i] != ref[i] {
							t.Fatalf("%s on %s: observation %d = %d, pthreads got %d",
								w.Name, rt.Name(), i, obs[i], ref[i])
						}
					}
				}
			}
		})
	}
}

// TestWorkloadsDeterministicOnDMT re-runs every kernel (including racey)
// three times on each deterministic runtime and requires identical output
// hashes.
func TestWorkloadsDeterministicOnDMT(t *testing.T) {
	cfg := Config{Threads: 4, Size: SizeTest}
	all := All()
	racey, _ := ByName("racey")
	all = append(all, racey)
	for _, w := range all {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, rt := range runtimes()[1:] { // skip pthreads
				var first uint64
				for i := 0; i < 3; i++ {
					rep, err := rt.Run(w.Prog(cfg))
					if err != nil {
						t.Fatalf("%s on %s: %v", w.Name, rt.Name(), err)
					}
					if i == 0 {
						first = rep.OutputHash
					} else if rep.OutputHash != first {
						t.Fatalf("%s on %s: run %d hash %#x != %#x", w.Name, rt.Name(), i, rep.OutputHash, first)
					}
				}
			}
		})
	}
}

// TestThreadCountScaling runs each kernel with 1..8 workers under RFDet-ci:
// the kernels must be correct at any width.
func TestThreadCountScaling(t *testing.T) {
	rt := core.New(core.DefaultOptions())
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			var ref []uint64
			for _, n := range []int{1, 2, 3, 8} {
				rep, err := rt.Run(w.Prog(Config{Threads: n, Size: SizeTest}))
				if err != nil {
					t.Fatalf("%s threads=%d: %v", w.Name, n, err)
				}
				obs := rep.Observations[0]
				if ref == nil {
					ref = obs
					continue
				}
				// Thread-count-invariant kernels: all reductions here are
				// exact integer folds, so widths must agree.
				for i := range obs {
					if obs[i] != ref[i] {
						t.Fatalf("%s: threads=%d observation %d = %d, 1-thread got %d",
							w.Name, n, i, obs[i], ref[i])
					}
				}
			}
		})
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("ocean"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("racey"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
	if len(Names()) != 16 {
		t.Fatalf("Names() = %d entries, want 16", len(Names()))
	}
}
