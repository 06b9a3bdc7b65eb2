package core

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"rfdet/internal/api"
	"rfdet/internal/litmus"
	"rfdet/internal/workloads"
)

// TestDeterminismIndependentOfChunk: how often a thread publishes its Kendo
// clock (tickChunk) is invisible. The litmus suite, the seed-golden programs
// and the four benchmark programs at test size run with every tick published
// (chunk 1 — the parent commit's per-access clock), with the default chunks
// (1 doubling to 64) and with nothing published between synchronization
// operations (a chunk of 2³¹ ticks from a thread's first one), at GOMAXPROCS 1 and 4, and all six executions of a program must agree on
// output hash, virtual time, deterministic trace and every deterministic
// Stats field. Where seed_regression_test.go pins a golden, all six must
// equal it too, so chunk 1 is checked against the parent commit's values and
// not only against its neighbours.
func TestDeterminismIndependentOfChunk(t *testing.T) {
	type program struct {
		name                 string
		prog                 api.ThreadFunc
		output, vtime, trace uint64 // seed goldens; 0 where none is pinned
	}
	cfg := workloads.Config{Threads: 4, Size: workloads.SizeTest}
	var progs []program
	for _, w := range []program{
		{name: "wordcount", output: 0xa96fd08b553d74e4, vtime: 37073, trace: 0xd6e8467b5b0149ef},
		{name: "fft", output: 0x2c11c3233a156078, vtime: 85814, trace: 0xf9c2d06607798849},
		{name: "racey", output: 0x22d8e78f10322389, vtime: 24179},
		{name: "server", output: 0x4e54dc625c3bc116, vtime: 469638, trace: 0x5d3ee695ccdf7685}, // the benchmark's kv_server
		{name: "water-ns"},
		{name: "matrix_multiply"},
	} {
		wl, err := workloads.ByName(w.name)
		if err != nil {
			t.Fatal(err)
		}
		w.prog = wl.Prog(cfg)
		progs = append(progs, w)
	}
	for _, tst := range litmus.Tests() {
		tst := tst
		progs = append(progs, program{name: "litmus/" + tst.Name, prog: func(th api.Thread) { th.Observe(tst.Prog(th)...) }})
	}

	type result struct {
		output, vtime uint64
		trace         string
		stats         api.Stats
	}
	opts := DefaultOptions()
	opts.Trace = true
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range progs {
		var first result
		var firstAt string
		for _, chunk := range []chunking{{0, 0}, tickChunk, {31, 31}} {
			for _, procs := range []int{1, 4} {
				at := fmt.Sprintf("%s chunk=%v P=%d", p.name, chunk, procs)
				runtime.GOMAXPROCS(procs)
				rt := New(opts)
				rt.chunk = chunk
				rep, tr, err := rt.RunTraced(p.prog)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				got := result{rep.OutputHash, rep.VirtualTime, tr.String(), rep.Stats.Deterministic()}
				if p.output != 0 && (got.output != p.output || got.vtime != p.vtime) {
					t.Fatalf("%s: output=%#x vtime=%d, seed output=%#x vtime=%d", at, got.output, got.vtime, p.output, p.vtime)
				}
				if p.trace != 0 {
					h := fnv.New64a()
					h.Write([]byte(got.trace))
					if h.Sum64() != p.trace {
						t.Fatalf("%s: trace hash %#x, seed %#x", at, h.Sum64(), p.trace)
					}
				}
				switch {
				case firstAt == "":
					first, firstAt = got, at
				case got.output != first.output || got.vtime != first.vtime:
					t.Fatalf("%s: output=%#x vtime=%d; %s: output=%#x vtime=%d", at, got.output, got.vtime, firstAt, first.output, first.vtime)
				case got.trace != first.trace:
					t.Fatalf("deterministic trace differs:\n--- %s ---\n%s\n--- %s ---\n%s", firstAt, first.trace, at, got.trace)
				case got.stats != first.stats:
					t.Fatalf("deterministic Stats differ:\n%s: %+v\n%s: %+v", firstAt, first.stats, at, got.stats)
				}
			}
		}
	}
}
