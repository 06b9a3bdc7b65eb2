package rfdet_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"rfdet"
	"rfdet/internal/harness"
	"rfdet/internal/workloads"
)

// This file fuzzes the determinism guarantee: seeded random multithreaded
// programs — full of data races, contended locks, atomics and joins — must
// produce identical outputs on every execution of every deterministic
// runtime, at any GOMAXPROCS. This is the programmatic generalization of
// the §5.1 racey stress test.

// fuzzProgram builds a random program from a seed. The program's *structure*
// (which operations each thread performs) is a pure function of the seed;
// its *behavior* additionally depends on racy memory contents, which is
// exactly what the deterministic runtimes must pin down. With raceFree set,
// every shared access is lock-protected or atomic, so ALL runtimes and ALL
// configurations must agree on the result.
func fuzzProgram(seed int64, raceFree bool) rfdet.ThreadFunc {
	return func(t rfdet.Thread) {
		r := rand.New(rand.NewSource(seed))
		nworkers := 2 + r.Intn(4)
		words := 64
		arr := t.Malloc(uint64(8 * words))
		atomWord := t.Malloc(8)
		nlocks := 1 + r.Intn(3)
		lockBase := rfdet.Addr(1 << 10)

		// Pre-generate each worker's script deterministically.
		type op struct {
			kind int
			a, b int
		}
		scripts := make([][]op, nworkers)
		for w := range scripts {
			nops := 30 + r.Intn(60)
			script := make([]op, nops)
			for i := range script {
				script[i] = op{kind: r.Intn(6), a: r.Intn(words), b: r.Intn(nlocks)}
			}
			scripts[w] = script
		}

		var ids []rfdet.ThreadID
		for w := 0; w < nworkers; w++ {
			script := scripts[w]
			me := uint64(w + 1)
			ids = append(ids, t.Spawn(func(t rfdet.Thread) {
				held := -1
				for _, o := range script {
					if raceFree && (o.kind == 0 || o.kind == 1) && held < 0 {
						// Race-free mode: plain accesses only inside a
						// critical section.
						o.kind = 2
					}
					switch o.kind {
					case 0: // read-modify-write
						v := t.Load64(arr + rfdet.Addr(8*o.a))
						if raceFree {
							// Commutative under the lock: the result is
							// schedule-independent, so every runtime and
							// configuration must agree exactly.
							t.Store64(arr+rfdet.Addr(8*o.a), v+me*2654435761)
						} else {
							t.Store64(arr+rfdet.Addr(8*o.a), v*1099511628211+me)
						}
					case 1: // copy between slots (racy mode only)
						if raceFree {
							v := t.Load64(arr + rfdet.Addr(8*o.a))
							t.Store64(arr+rfdet.Addr(8*o.a), v+me)
						} else {
							dst := (o.a * 7) % words
							t.Store64(arr+rfdet.Addr(8*dst), t.Load64(arr+rfdet.Addr(8*o.a)))
						}
					case 2: // critical section on one of the locks
						if held < 0 {
							lk := o.b
							if raceFree {
								lk = 0 // a single lock guards the shared word
							}
							t.Lock(lockBase + rfdet.Addr(8*lk))
							held = lk
							v := t.Load64(arr)
							t.Store64(arr, v+me) // commutative: schedule-independent
						}
					case 3: // release, if holding
						if held >= 0 {
							t.Unlock(lockBase + rfdet.Addr(8*held))
							held = -1
						}
					case 4: // deterministic atomic
						t.AtomicAdd64(atomWord, me)
					default: // compute
						t.Tick(uint64(10 + o.a))
					}
				}
				if held >= 0 {
					t.Unlock(lockBase + rfdet.Addr(8*held))
				}
			}))
		}
		for _, id := range ids {
			t.Join(id)
		}
		var fold uint64
		for i := 0; i < words; i++ {
			fold = fold*31 + t.Load64(arr+rfdet.Addr(8*i))
		}
		t.Observe(fold, t.Load64(atomWord))
	}
}

// TestFuzzDeterminism runs each generated program repeatedly on each
// deterministic runtime and demands identical hashes.
func TestFuzzDeterminism(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	runtimes := []func() rfdet.Runtime{
		func() rfdet.Runtime { return rfdet.NewCI() },
		func() rfdet.Runtime { return rfdet.NewPF() },
		func() rfdet.Runtime { return rfdet.NewDThreads() },
		func() rfdet.Runtime { return rfdet.NewCoreDet(5000) },
		func() rfdet.Runtime { return rfdet.NewRCDC(5000) },
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		prog := fuzzProgram(seed, false)
		for _, mk := range runtimes {
			rt := mk()
			var first uint64
			for i := 0; i < 3; i++ {
				rep, err := rt.Run(prog)
				if err != nil {
					t.Fatalf("seed %d on %s: %v", seed, rt.Name(), err)
				}
				if i == 0 {
					first = rep.OutputHash
				} else if rep.OutputHash != first {
					t.Fatalf("seed %d on %s: run %d hash %#x != %#x",
						seed, rt.Name(), i, rep.OutputHash, first)
				}
			}
		}
	}
}

// TestFuzzOptionsAgreeRaceFree runs race-free generated programs across the
// full RFDet option matrix. For race-free programs the C++ memory model
// fixes the result completely (§3.3), so every monitor and optimization
// combination — and every runtime — must agree exactly.
func TestFuzzOptionsAgreeRaceFree(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	var opts []rfdet.Options
	for _, monitor := range []rfdet.Monitor{rfdet.MonitorCI, rfdet.MonitorPF} {
		for mask := 0; mask < 8; mask++ {
			opts = append(opts, rfdet.Options{
				Monitor:      monitor,
				SliceMerging: mask&1 != 0,
				Prelock:      mask&2 != 0,
				LazyWrites:   mask&4 != 0,
			})
		}
	}
	for seed := int64(100); seed < 100+int64(seeds); seed++ {
		prog := fuzzProgram(seed, true)
		var firstObs []uint64
		check := func(name string, rep *rfdet.Report) {
			obs := rep.Observations[0]
			if firstObs == nil {
				firstObs = obs
				return
			}
			for i := range obs {
				if obs[i] != firstObs[i] {
					t.Fatalf("seed %d: %s changed a race-free result (%v != %v)",
						seed, name, obs, firstObs)
				}
			}
		}
		for _, o := range opts {
			rep, err := rfdet.New(o).Run(prog)
			if err != nil {
				t.Fatalf("seed %d opts %+v: %v", seed, o, err)
			}
			check(fmt.Sprintf("options %+v", o), rep)
		}
		for _, rt := range []rfdet.Runtime{rfdet.NewDThreads(), rfdet.NewPThreads()} {
			rep, err := rt.Run(prog)
			if err != nil {
				t.Fatalf("seed %d on %s: %v", seed, rt.Name(), err)
			}
			check(rt.Name(), rep)
		}
	}
}

// TestFuzzOrderPreservingOptionsAgreeOnRaces: for racy programs, the
// monitor choice and the lazy-writes optimization never reorder
// modification application, so they must not change even racy results.
// (Prelock and slice merging may legitimately select a different —
// still deterministic — resolution of concurrent conflicting writes;
// the paper's guarantee for races is "arbitrary but deterministic",
// §3.4.)
func TestFuzzOrderPreservingOptionsAgreeOnRaces(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	opts := []rfdet.Options{
		{Monitor: rfdet.MonitorCI},
		{Monitor: rfdet.MonitorPF},
		{Monitor: rfdet.MonitorCI, LazyWrites: true},
		{Monitor: rfdet.MonitorPF, LazyWrites: true},
	}
	for seed := int64(300); seed < 300+int64(seeds); seed++ {
		prog := fuzzProgram(seed, false)
		var first uint64
		for i, o := range opts {
			rep, err := rfdet.New(o).Run(prog)
			if err != nil {
				t.Fatalf("seed %d opts %+v: %v", seed, o, err)
			}
			if i == 0 {
				first = rep.OutputHash
			} else if rep.OutputHash != first {
				t.Fatalf("seed %d: options %+v changed the result (%#x != %#x)",
					seed, o, rep.OutputHash, first)
			}
		}
	}
}

// TestFuzzServerReplicasAgree is the end-to-end replica fuzz wall: for random
// request-log seeds and worker-thread counts, the KV server's replica matrix
// (harness.MatrixVariants: GOMAXPROCS {1,4,8}) must produce
// byte-identical state hashes, response hashes, observation digests and
// virtual times. This fuzzes the active-replication property itself —
// the whole server-shaped execution (condvar queue, shard locks, barrier,
// atomics), not just generated kernels.
func TestFuzzServerReplicasAgree(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for i := 0; i < seeds; i++ {
		seed := uint64(0x1300) + uint64(i)*0x9e3779b97f4a7c15
		threads := 2 + int(seed%4) // 2..5 workers, derived from the seed
		cfg := workloads.Config{Threads: threads, Size: workloads.SizeTest}

		rep := harness.RunServerReplicas(cfg, seed, harness.MatrixVariants())
		if rep.Divergent() {
			t.Fatalf("seed %#x threads %d: replicas diverged:\n%s",
				seed, threads, fmtDivergences(rep.Divergences))
		}
		for j, run := range rep.Runs {
			if run.Err != nil {
				t.Fatalf("seed %#x replica %d (%s): %v", seed, j, run.Variant, run.Err)
			}
			if run.Summary.Served != uint64(rep.Requests) {
				t.Fatalf("seed %#x replica %d (%s): served %d of %d requests",
					seed, j, run.Variant, run.Summary.Served, rep.Requests)
			}
		}
	}
}

// privateLockFuzzProgram generates race-free programs in which every worker
// hammers a mutex no peer ever takes — releases nobody acquires, slice
// merging on every re-lock — and writes a private region under the shared
// lock that no peer reads before the join, alongside ordinary shared-lock
// and atomic traffic.
func privateLockFuzzProgram(seed int64) rfdet.ThreadFunc {
	return func(t rfdet.Thread) {
		r := rand.New(rand.NewSource(seed ^ 0x5eed))
		nworkers := 2 + r.Intn(3)
		words := 32
		arr := t.Malloc(uint64(8 * words * (nworkers + 1)))
		atomWord := t.Malloc(8)
		sharedLock := rfdet.Addr(1 << 10)
		privLockBase := rfdet.Addr(1 << 12)

		type op struct{ kind, a int }
		scripts := make([][]op, nworkers)
		for w := range scripts {
			nops := 20 + r.Intn(40)
			script := make([]op, nops)
			for i := range script {
				script[i] = op{kind: r.Intn(5), a: r.Intn(words)}
			}
			scripts[w] = script
		}

		var ids []rfdet.ThreadID
		for w := 0; w < nworkers; w++ {
			script := scripts[w]
			me := uint64(w + 1)
			priv := privLockBase + rfdet.Addr(64*w)
			region := arr + rfdet.Addr(8*words*(w+1))
			ids = append(ids, t.Spawn(func(t rfdet.Thread) {
				for _, o := range script {
					switch o.kind {
					case 0: // private critical section
						t.Lock(priv)
						t.Store64(region, t.Load64(region)+me)
						t.Unlock(priv)
					case 1: // shared critical section, commutative
						t.Lock(sharedLock)
						t.Store64(arr, t.Load64(arr)+me*2654435761)
						t.Unlock(sharedLock)
					case 2: // private region written under the shared lock:
						// propagates to peers that never read it
						t.Lock(sharedLock)
						t.Store64(region+rfdet.Addr(8*(o.a%words)), me*uint64(o.a+1))
						t.Unlock(sharedLock)
					case 3: // deterministic atomic
						t.AtomicAdd64(atomWord, me)
					default:
						t.Tick(uint64(5 + o.a))
					}
				}
			}))
		}
		for _, id := range ids {
			t.Join(id)
		}
		var fold uint64
		for i := 0; i < words*(nworkers+1); i++ {
			fold = fold*31 + t.Load64(arr+rfdet.Addr(8*i))
		}
		t.Observe(fold, t.Load64(atomWord))
	}
}

func fmtDivergences(ds []string) string {
	var out string
	for _, d := range ds {
		out += d + "\n"
	}
	return out
}

// TestFuzzValidated runs generated programs with the DLRC invariant checker
// enabled: the slice lists must satisfy the happens-before structure of
// §4.2/§4.3 on every execution.
func TestFuzzValidated(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(500); seed < 500+int64(seeds); seed++ {
		o := rfdet.Options{SliceMerging: true, Prelock: true, Validate: true}
		if _, err := rfdet.New(o).Run(fuzzProgram(seed, false)); err != nil {
			t.Fatalf("seed %d failed validation: %v", seed, err)
		}
	}
}

// TestFuzzHostParallelismAgrees: host parallelism must be invisible to every
// deterministic observable. Even racy programs, under either monitor, with
// the full optimization stack, must produce bit-identical output hashes AND
// virtual times at GOMAXPROCS 1, 2, 4 and 8. Two program families:
// fuzzProgram, whose one to three locks every worker takes, and
// privateLockFuzzProgram, which adds a lock per worker that nobody else does.
func TestFuzzHostParallelismAgrees(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	bases := []rfdet.Options{
		{Monitor: rfdet.MonitorCI},
		{Monitor: rfdet.MonitorPF},
		{Monitor: rfdet.MonitorCI, SliceMerging: true, Prelock: true, LazyWrites: true},
		{Monitor: rfdet.MonitorPF, SliceMerging: true, Prelock: true, LazyWrites: true},
	}
	for seed := int64(1100); seed < 1100+int64(seeds); seed++ {
		families := []struct {
			name string
			prog rfdet.ThreadFunc
		}{
			{"shared-locks", fuzzProgram(seed, false)},
			{"private-locks", privateLockFuzzProgram(seed)},
		}
		for _, fam := range families {
			for _, base := range bases {
				var firstOut, firstVT uint64
				for i, procs := range []int{1, 2, 4, 8} {
					old := runtime.GOMAXPROCS(procs)
					rep, err := rfdet.New(base).Run(fam.prog)
					runtime.GOMAXPROCS(old)
					if err != nil {
						t.Fatalf("%s seed %d opts %+v P=%d: %v", fam.name, seed, base, procs, err)
					}
					if i == 0 {
						firstOut, firstVT = rep.OutputHash, rep.VirtualTime
					} else if rep.OutputHash != firstOut || rep.VirtualTime != firstVT {
						t.Fatalf("%s seed %d opts %+v P=%d: host parallelism changed the result (output %#x vtime %d != %#x %d)",
							fam.name, seed, base, procs, rep.OutputHash, rep.VirtualTime, firstOut, firstVT)
					}
				}
			}
		}
	}
}
