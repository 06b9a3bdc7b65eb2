package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"rfdet"
	"rfdet/internal/alloc"
	"rfdet/internal/kendo"
	"rfdet/internal/mem"
	"rfdet/internal/slicestore"
	"rfdet/internal/stats"
	"rfdet/internal/vclock"
)

// The layer pass times each module from outside, through the public
// functions README.md lists, on synthetic inputs drawn from the seed. It is
// workload-independent: its numbers say what one operation of a layer costs
// on this host, the traced pass says how many of them a workload performs.

// layerPass collects the pass's metrics. Every count below is at scale 1.
type layerPass struct {
	rec   *recorder
	r     rng
	scale float64
	out   []metric
}

// batches is how many times each timed loop repeats; the metric is the
// median batch, so one descheduled batch does not move it.
const batches = 9

func (l *layerPass) n(base int) int {
	if n := int(float64(base) * l.scale); n > 1 {
		return n
	}
	return 1
}

func (l *layerPass) emit(name, unit string, samples []float64) {
	l.out = append(l.out, metric{Name: name, Unit: unit, Value: median(samples), Samples: len(samples)})
}

// perOp runs fn — ops operations — batches times, after an untimed prep if
// there is one, and returns each batch's nanoseconds per operation.
func perOp(ops int, prep, fn func()) []float64 {
	out := make([]float64, batches)
	for b := range out {
		if prep != nil {
			prep()
		}
		start := stats.Now()
		fn()
		out[b] = float64(stats.Since(start)) / float64(ops)
	}
	return out
}

func scaled(xs []float64, by float64) []float64 {
	for i := range xs {
		xs[i] *= by
	}
	return xs
}

// mallocsDuring returns the heap allocations fn makes.
func mallocsDuring(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// sink keeps results the timed loops compute alive.
var sink uint64

// runLayers runs every driver, each inside its own span.
func runLayers(rec *recorder, seed uint64, scale float64) ([]metric, error) {
	l := &layerPass{rec: rec, r: rng(seed), scale: scale}
	drivers := []struct {
		name string
		run  func() error
	}{
		{"kendo", l.kendo}, {"vclock", l.vclock}, {"mem", l.mem},
		{"slicestore", l.slicestore}, {"alloc", l.alloc}, {"core", l.core},
	}
	for _, d := range drivers {
		id := rec.begin("layer:"+d.name, "layers")
		err := d.run()
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("layer driver %s: %w", d.name, err)
		}
	}
	return l.out, nil
}

func (l *layerPass) kendo() error {
	// One thread alone: the cost of asking for a turn nobody contests.
	s := kendo.NewSched()
	p := s.Register(0, 0)
	ops := l.n(200000)
	l.emit("kendo.uncontended_ns", "ns", perOp(ops, nil, func() {
		for i := 0; i < ops; i++ {
			p.Tick(1)
			s.WaitForTurn(p)
		}
	}))

	// Four threads pass the turn round-robin: thread i starts at clock i and
	// cedes by ticking past the other three. A handoff is timed from just
	// before the ceding Tick to the return of the successor's WaitForTurn;
	// the clock's atomic add and load order the accesses to stamp.
	const procs = 4
	turns := l.n(50000) / procs
	s = kendo.NewSched()
	ps := make([]*kendo.Proc, procs)
	for i := range ps {
		ps[i] = s.Register(int32(i), uint64(i))
	}
	var stamp time.Time
	lat := make([][]float64, procs)
	var wg sync.WaitGroup
	for i := range ps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < turns; k++ {
				s.WaitForTurn(ps[i])
				if i+k > 0 {
					lat[i] = append(lat[i], float64(stats.Since(stamp)))
				}
				stamp = stats.Now()
				ps[i].Tick(procs)
			}
		}(i)
	}
	wg.Wait()
	var all []float64
	for _, x := range lat {
		all = append(all, x...)
	}
	asc := sorted(all)
	l.out = append(l.out,
		metric{Name: "kendo.handoff_ns_p50", Unit: "ns", Value: quantile(asc, 50), Samples: len(asc)},
		metric{Name: "kendo.handoff_ns_p99", Unit: "ns", Value: quantile(asc, 99), Samples: len(asc)})
	return nil
}

func (l *layerPass) vclock() error {
	// Width 8 covers kv_server's seven threads. Pairs are drawn so that about
	// half the Leq calls scan the whole vector and half stop early.
	const width, pairs = 8, 1024
	vs := make([]vclock.VC, 2*pairs)
	for i := range vs {
		vs[i] = vclock.New(width)
		for c := 0; c < width; c++ {
			vs[i][c] = uint64(l.r.intn(1000))
		}
	}
	for i := 0; i < pairs; i += 2 {
		vs[2*i+1] = vs[2*i].Clone().Join(vs[2*i+1]) // vs[2i] ≤ vs[2i+1]
	}
	reps := l.n(2000)
	l.emit("vclock.leq_ns", "ns", perOp(reps*pairs, nil, func() {
		for k := 0; k < reps; k++ {
			for i := 0; i < pairs; i++ {
				if vs[2*i].Leq(vs[2*i+1]) {
					sink++
				}
			}
		}
	}))
	dst := vclock.New(width)
	l.emit("vclock.join_ns", "ns", perOp(reps*pairs, nil, func() {
		for k := 0; k < reps; k++ {
			for i := 0; i < pairs; i++ {
				dst = dst.Join(vs[2*i+(k&1)])
			}
		}
	}))
	sink += dst.Get(0)
	return nil
}

func (l *layerPass) mem() error {
	base := uint64(alloc.HeapBase)
	pageAddr := func(p int) uint64 { return base + uint64(p)*mem.PageSize }

	// Warm loads and stores with dirty tracking on, over 64 resident pages.
	const pages = 64
	sp := mem.NewSpace()
	sp.SetDirtyTracking(true)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = pageAddr(l.r.intn(pages)) + uint64(l.r.intn(mem.PageSize/8))*8
		sp.Store64(addrs[i], addrs[i])
	}
	reps := l.n(500)
	l.emit("mem.store64_ns", "ns", perOp(reps*len(addrs), nil, func() {
		for k := 0; k < reps; k++ {
			for _, a := range addrs {
				sp.Store64(a, uint64(k))
			}
		}
	}))
	l.emit("mem.load64_ns", "ns", perOp(reps*len(addrs), nil, func() {
		for k := 0; k < reps; k++ {
			for _, a := range addrs {
				sink += sp.Load64(a)
			}
		}
	}))

	// First touch of a page a child inherited: the monitor's snapshot plus
	// the copy-on-write the store triggers.
	touch := l.n(512)
	for p := 0; p < touch; p++ {
		sp.Store64(pageAddr(p), 1)
	}
	var child *mem.Space
	l.emit("mem.first_touch_us", "us", scaled(perOp(touch, func() {
		if child != nil {
			child.Release()
		}
		child = sp.Clone()
	}, func() {
		for p := 0; p < touch; p++ {
			snap := child.Snapshot(mem.PageOf(pageAddr(p)))
			child.Store64(pageAddr(p), 2)
			mem.PutPageBuf(snap)
		}
	}), 1e-3))
	child.Release()
	sp.Release()

	// Slice-end diff of one page: 16 written extents of 16 bytes, and a
	// page written end to end. Every written byte differs from the snapshot.
	snap, cur := make([]byte, mem.PageSize), make([]byte, mem.PageSize)
	var sparse []mem.Extent
	for slot := 0; slot < 16; slot++ {
		off := uint32(slot*256 + l.r.intn(224))
		sparse = append(sparse, mem.Extent{Off: off, Len: 16})
		for b := off; b < off+16; b++ {
			cur[b] = 0xff
		}
	}
	diffs := l.n(4000)
	l.emit("mem.diff_sparse_us", "us", scaled(perOp(diffs, nil, func() {
		for k := 0; k < diffs; k++ {
			sink += uint64(len(mem.DiffPageExtents(0, snap, cur, sparse)))
		}
	}), 1e-3))
	for b := range cur {
		cur[b] = 0xff
	}
	dense := []mem.Extent{{Off: 0, Len: mem.PageSize}}
	l.emit("mem.diff_dense_us", "us", scaled(perOp(diffs, nil, func() {
		for k := 0; k < diffs; k++ {
			sink += uint64(len(mem.DiffPageExtents(0, snap, cur, dense)))
		}
	}), 1e-3))

	// Write plan over 32 slices, each with 16 runs of 32 bytes on each of the
	// same 8 pages, so later slices overwrite earlier ones.
	mods := make([][]mem.Run, 32)
	for s := range mods {
		for p := 0; p < 8; p++ {
			for r := 0; r < 16; r++ {
				data := make([]byte, 32)
				data[0] = byte(s)
				mods[s] = append(mods[s], mem.Run{Addr: pageAddr(p) + uint64(l.r.intn(mem.PageSize-32)), Data: data})
			}
		}
	}
	target := mem.NewSpace()
	for p := 0; p < 8; p++ {
		target.Store64(pageAddr(p), 1)
	}
	plans := l.n(100)
	var plan *mem.WritePlan
	l.emit("mem.plan_build_us", "us", scaled(perOp(plans, nil, func() {
		for k := 0; k < plans; k++ {
			if plan != nil {
				plan.Release()
			}
			plan = mem.BuildPlan(mods)
		}
	}), 1e-3))
	l.emit("mem.plan_apply_us", "us", scaled(perOp(plans, nil, func() {
		for k := 0; k < plans; k++ {
			target.ApplyPlan(plan)
		}
	}), 1e-3))
	plan.Release()
	l.emit("mem.plan_allocs", "count", []float64{mallocsDuring(func() {
		for k := 0; k < plans; k++ {
			p := mem.BuildPlan(mods)
			target.ApplyPlan(p)
			p.Release()
		}
	}) / float64(plans)})
	target.Release()
	return nil
}

func (l *layerPass) slicestore() error {
	// The BenchmarkSliceStoreChurn shape: slices of 16 runs of 256 bytes from
	// four threads, and a Collect that covers everything every 64 commits.
	const runsPerSlice, runBytes, round = 16, 256, 64
	st := slicestore.NewEpochStore(1<<30, slicestore.DefaultGCThresholdPct, threads)
	scratch := make([][]byte, runsPerSlice)
	for r := range scratch {
		scratch[r] = make([]byte, runBytes)
	}
	rounds := l.n(1500)
	var commitNs, collectUs []float64
	pending := make([]*slicestore.Slice, round)
	clock := uint64(0)
	allocs := mallocsDuring(func() {
		for k := 0; k < rounds; k++ {
			for i := range pending {
				mods := make([]mem.Run, runsPerSlice)
				for r := range mods {
					mods[r] = mem.Run{Addr: uint64(l.r.intn(1<<20)) * runBytes, Data: scratch[r]}
				}
				clock++
				pending[i] = &slicestore.Slice{Tid: int32(i % threads), Time: vclock.VC{clock},
					Mods: mods, Bytes: runsPerSlice * runBytes}
			}
			start := stats.Now()
			for _, s := range pending {
				st.Commit(s)
			}
			committed := stats.Since(start)
			st.Collect(vclock.VC{clock})
			collected := stats.Since(start)
			commitNs = append(commitNs, float64(committed)/round)
			collectUs = append(collectUs, float64(collected-committed)/1e3)
		}
	})
	l.emit("slicestore.commit_ns", "ns", commitNs)
	l.emit("slicestore.collect_us", "us", collectUs)
	l.emit("slicestore.churn_allocs", "count", []float64{allocs / float64(rounds*round)})
	return nil
}

func (l *layerPass) alloc() error {
	a := alloc.New()
	a.Register(0)
	sizes := make([]uint64, l.n(4096))
	for i := range sizes {
		sizes[i] = uint64(16 + l.r.intn(4081))
	}
	got := make([]uint64, len(sizes))
	var mallocNs, freeNs []float64
	for b := 0; b < batches; b++ {
		start := stats.Now()
		for i, sz := range sizes {
			got[i] = a.Malloc(0, sz)
		}
		malloced := stats.Since(start)
		for _, addr := range got {
			if err := a.Free(addr); err != nil {
				return err
			}
		}
		freed := stats.Since(start)
		mallocNs = append(mallocNs, float64(malloced)/float64(len(sizes)))
		freeNs = append(freeNs, float64(freed-malloced)/float64(len(sizes)))
	}
	l.emit("alloc.malloc_ns", "ns", mallocNs)
	l.emit("alloc.free_ns", "ns", freeNs)
	return nil
}

func (l *layerPass) core() error {
	rt := rfdet.NewCI()

	// An empty program: what starting and stopping the runtime costs.
	var fixed []float64
	for i := l.n(300); i > 0; i-- {
		start := stats.Now()
		if _, err := rt.Run(func(rfdet.Thread) {}); err != nil {
			return err
		}
		fixed = append(fixed, float64(stats.Since(start))/1e3)
	}
	l.emit("core.run_fixed_us", "us", fixed)

	// The remaining figures are timed from inside the program: reading the
	// host clock there is observation only and feeds nothing back.
	pairs := l.n(1000)
	var syncNs, spawnUs []float64
	_, err := rt.Run(func(t rfdet.Thread) {
		m := t.Malloc(8)
		syncNs = perOp(2*pairs, nil, func() {
			for i := 0; i < pairs; i++ {
				t.Lock(m)
				t.Unlock(m)
			}
		})
		for i := l.n(300); i > 0; i-- {
			start := stats.Now()
			t.Join(t.Spawn(func(rfdet.Thread) {}))
			spawnUs = append(spawnUs, float64(stats.Since(start))/1e3)
		}
	})
	if err != nil {
		return err
	}
	l.emit("core.syncop_uncontended_ns", "ns", syncNs)
	l.emit("core.spawn_join_us", "us", spawnUs)

	// Two threads increment one counter under one lock. Their clocks advance
	// in step, so the deterministic order alternates them and nearly every
	// acquisition is handed over by the other thread's unlock.
	rounds := l.n(2000)
	var handoffUs []float64
	for b := 0; b < 5; b++ {
		var elapsed time.Duration
		rep, err := rt.Run(func(t rfdet.Thread) {
			m, x := t.Malloc(8), t.Malloc(8)
			body := func(t rfdet.Thread) {
				for i := 0; i < rounds; i++ {
					t.Lock(m)
					t.Store64(x, t.Load64(x)+1)
					t.Unlock(m)
					t.Tick(50)
				}
			}
			start := stats.Now()
			first, second := t.Spawn(body), t.Spawn(body)
			t.Join(first)
			t.Join(second)
			elapsed = stats.Since(start)
			t.Observe(t.Load64(x))
		})
		if err != nil {
			return err
		}
		if got := rep.Observations[0]; len(got) != 1 || got[0] != uint64(2*rounds) {
			return fmt.Errorf("lock handoff counted %v, want %d", got, 2*rounds)
		}
		handoffUs = append(handoffUs, float64(elapsed)/1e3/float64(2*rounds))
	}
	l.emit("core.lock_handoff_us", "us", handoffUs)
	return nil
}
