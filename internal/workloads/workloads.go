// Package workloads provides the 16 parallel kernels of the paper's
// evaluation (§5.1: SPLASH-2, Phoenix and Parsec programs) plus the racey
// determinism stress test, rebuilt as synthetic kernels against the
// runtime-agnostic api.Thread interface.
//
// Each kernel preserves its paper counterpart's synchronization signature —
// the mix of lock/unlock, cond wait/signal, fork/join of Table 1 — and an
// analogous memory-access pattern, because those are the independent
// variables of every experiment in §5. The SPLASH-2 kernels use lock-based
// barriers (a mutex, a condition variable and shared counters), matching the
// paper's c.m4.null.POSIX configuration which implements barriers with lock
// and unlock to stress synchronization.
//
// All kernels are deterministic by construction modulo the runtime: they use
// no host randomness, no map iteration, and only fixed-point (integer)
// cross-thread reductions, so the race-free kernels produce bit-identical
// checksums on every runtime, while the racy ones (racey) expose scheduler
// nondeterminism on pthreads and fixed outputs on the DMT runtimes.
package workloads

import (
	"fmt"

	"rfdet/internal/api"
)

// Size selects a kernel's problem scale.
type Size int

const (
	// SizeTest is minimal, for unit tests.
	SizeTest Size = iota
	// SizeSmall finishes quickly under every runtime; used by default in
	// table/figure regeneration.
	SizeSmall
	// SizeMedium approximates the paper's relative proportions.
	SizeMedium
)

func (s Size) String() string {
	switch s {
	case SizeTest:
		return "test"
	case SizeSmall:
		return "small"
	default:
		return "medium"
	}
}

// Set parses a size's name, so a *Size is a flag.Value.
func (s *Size) Set(name string) error {
	for _, sz := range []Size{SizeTest, SizeSmall, SizeMedium} {
		if sz.String() == name {
			*s = sz
			return nil
		}
	}
	return fmt.Errorf("unknown size %q (test, small or medium)", name)
}

// pick returns the value for the configured size.
func (s Size) pick(test, small, medium int) int {
	switch s {
	case SizeTest:
		return test
	case SizeSmall:
		return small
	default:
		return medium
	}
}

// Config parameterizes one kernel run.
type Config struct {
	// Threads is the number of worker threads (the paper evaluates 2, 4
	// and 8).
	Threads int
	// Size is the problem scale.
	Size Size
}

// Workload is one benchmark kernel.
type Workload struct {
	// Name matches the paper's benchmark name (Table 1).
	Name string
	// Suite is "splash2", "phoenix", "parsec" or "stress".
	Suite string
	// RaceFree reports whether the kernel is free of data races, in which
	// case its checksum is identical across all runtimes.
	RaceFree bool
	// Prog builds the kernel's main thread function.
	Prog func(cfg Config) api.ThreadFunc
}

// All returns the paper's 16 benchmarks in Table 1 order.
func All() []Workload {
	return []Workload{
		{Name: "ocean", Suite: "splash2", RaceFree: true, Prog: Ocean},
		{Name: "water-ns", Suite: "splash2", RaceFree: true, Prog: WaterNS},
		{Name: "water-sp", Suite: "splash2", RaceFree: true, Prog: WaterSP},
		{Name: "fft", Suite: "splash2", RaceFree: true, Prog: FFT},
		{Name: "radix", Suite: "splash2", RaceFree: true, Prog: Radix},
		{Name: "lu-con", Suite: "splash2", RaceFree: true, Prog: LUContiguous},
		{Name: "lu-non", Suite: "splash2", RaceFree: true, Prog: LUNonContiguous},
		{Name: "linear_regression", Suite: "phoenix", RaceFree: true, Prog: LinearRegression},
		{Name: "matrix_multiply", Suite: "phoenix", RaceFree: true, Prog: MatrixMultiply},
		{Name: "pca", Suite: "phoenix", RaceFree: true, Prog: PCA},
		{Name: "wordcount", Suite: "phoenix", RaceFree: true, Prog: WordCount},
		{Name: "string_match", Suite: "phoenix", RaceFree: true, Prog: StringMatch},
		{Name: "blackscholes", Suite: "parsec", RaceFree: true, Prog: BlackScholes},
		{Name: "swaptions", Suite: "parsec", RaceFree: true, Prog: Swaptions},
		{Name: "dedup", Suite: "parsec", RaceFree: true, Prog: Dedup},
		{Name: "ferret", Suite: "parsec", RaceFree: true, Prog: Ferret},
	}
}

// ByName returns the named workload, including the extras outside Table 1:
// "racey" (the §5.1 stress test), "canneal" (the §4.6 atomics-extension
// workload the paper excludes) and "server" (the deterministic KV server the
// replica-divergence harness replicates). The server is data-race-free but
// its responses are acquisition-order dependent, so its output is pinned per
// deterministic runtime rather than identical across all runtimes —
// RaceFree=false by the field's cross-runtime meaning.
func ByName(name string) (Workload, error) {
	if name == "racey" {
		return Workload{Name: "racey", Suite: "stress", RaceFree: false, Prog: Racey}, nil
	}
	if name == "canneal" {
		return Workload{Name: "canneal", Suite: "parsec-ext", RaceFree: false, Prog: Canneal}, nil
	}
	if name == "server" {
		return Workload{Name: "server", Suite: "server", RaceFree: false, Prog: Server}, nil
	}
	for _, w := range All() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// Names returns the benchmark names in Table 1 order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.Name
	}
	return names
}

//
// Shared building blocks.
//

// rng is a deterministic xorshift64* generator, used for synthetic inputs.
type rng uint64

func newRNG(seed uint64) rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return rng(seed)
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545f4914f6cdd1d
}

// barrier is a lock-based barrier (mutex + condition variable + shared
// counters), matching the SPLASH-2 c.m4.null.POSIX configuration the paper
// evaluates with (§5.1).
type barrier struct {
	mu, cond, count, gen api.Addr
	n                    int
}

// newBarrier allocates the barrier's shared state.
func newBarrier(t api.Thread, n int) *barrier {
	base := t.Malloc(32)
	return &barrier{mu: base, cond: base + 8, count: base + 16, gen: base + 24, n: n}
}

// wait blocks until n threads have arrived.
func (b *barrier) wait(t api.Thread) {
	t.Lock(b.mu)
	g := t.Load64(b.gen)
	c := t.Load64(b.count) + 1
	t.Store64(b.count, c)
	if int(c) == b.n {
		t.Store64(b.count, 0)
		t.Store64(b.gen, g+1)
		t.Broadcast(b.cond)
	} else {
		for t.Load64(b.gen) == g {
			t.Wait(b.cond, b.mu)
		}
	}
	t.Unlock(b.mu)
}

// spawnWorkers forks n workers running body(worker-index) and returns their
// IDs; joinAll joins them in order.
func spawnWorkers(t api.Thread, n int, body func(t api.Thread, w int)) []api.ThreadID {
	ids := make([]api.ThreadID, n)
	for w := 0; w < n; w++ {
		w := w
		ids[w] = t.Spawn(func(c api.Thread) { body(c, w) })
	}
	return ids
}

func joinAll(t api.Thread, ids []api.ThreadID) {
	for _, id := range ids {
		t.Join(id)
	}
}

// checksum64 folds a value into a running FNV-style checksum.
func checksum64(h, v uint64) uint64 {
	h ^= v
	h *= 0x100000001b3
	return h
}

// checksumRange folds len 64-bit words starting at addr.
func checksumRange(t api.Thread, addr api.Addr, words int) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < words; i++ {
		h = checksum64(h, t.Load64(addr+api.Addr(8*i)))
	}
	return h
}

// band returns the half-open [lo,hi) share of n items for worker w of nw.
func band(n, w, nw int) (lo, hi int) {
	lo = n * w / nw
	hi = n * (w + 1) / nw
	return lo, hi
}
