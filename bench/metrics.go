package main

import (
	"time"

	"rfdet"
	"rfdet/internal/trace"
)

// metricDef names a metric and its unit. BENCHMARK.json repeats the names
// and adds each end-to-end metric's direction and bound; bench_test.go holds
// the two lists equal.
type metricDef struct{ name, unit string }

// setupMetric is the benchmark's own set-up time: fingerprint check plus
// warm-up, median over the repetitions.
var setupMetric = metricDef{"setup_s", "s"}

// windowDef is a metric of the timed window (tracing off): value computes
// it from a segment, or from the whole window, which is its segments added
// up. The bounded ones are BENCHMARK.json's end_to_end list with setup_s.
// The others are the raw host times the bounded ones are calibrated from:
// printed, stored and compared, but never gated, because this kind of host
// moves them by 20-35% from one minute to the next (README.md, "How steady
// it is").
type windowDef struct {
	metricDef
	bounded bool
	value   func(s *segment) float64
}

var windowMetrics = []windowDef{
	// Wall time of one Runtime.Run in multiples of the host probe (ten
	// 2-microsecond sleeps, timed inside the same window): what an execution
	// costs relative to what this host, in this minute, charges for waking up.
	{metricDef{"run_x_p50", "x"}, true, func(s *segment) float64 { return quantile(sorted(s.ms), 50) * 1e3 / s.probe() }},
	{metricDef{"run_x_p90", "x"}, true, func(s *segment) float64 { return quantile(sorted(s.ms), 90) * 1e3 / s.probe() }},
	{metricDef{"allocs_per_run", "count"}, true, func(s *segment) float64 { return float64(s.mallocs) / float64(len(s.ms)) }},
	{metricDef{"alloc_kb_per_run", "KiB"}, true, func(s *segment) float64 { return float64(s.bytes) / 1024 / float64(len(s.ms)) }},

	{metricDef{"run_ms_p50", "ms"}, false, func(s *segment) float64 { return quantile(sorted(s.ms), 50) }},
	{metricDef{"run_ms_p90", "ms"}, false, func(s *segment) float64 { return quantile(sorted(s.ms), 90) }},
	// Includes the Go collector's work between executions.
	{metricDef{"runs_per_s", "1/s"}, false, func(s *segment) float64 { return float64(len(s.ms)) / s.wall.Seconds() }},
	// Host nanoseconds per pinned virtual nanosecond, median over executions:
	// ROADMAP's "15x gap", comparable across workloads.
	{metricDef{"host_virtual_x", "ratio"}, false, func(s *segment) float64 { return median(s.ratio) }},
	{metricDef{"host_probe_us", "us"}, false, (*segment).probe},
}

// tracedExec is one traced execution, with the phase report summarised once.
type tracedExec struct {
	st     *rfdet.Stats
	leqNs  float64 // the layer pass's vclock.leq_ns, which prices the collection scan
	vtime  uint64
	totals [trace.NumPhases]time.Duration
	counts [trace.NumPhases]uint64
	turn   trace.Percentiles
	user   time.Duration
	spans  uint64
}

func summarise(rep *rfdet.Report, leqNs float64) *tracedExec {
	x := &tracedExec{st: &rep.Stats, leqNs: leqNs, vtime: rep.VirtualTime,
		totals: rep.Phases.PhaseTotals(), counts: rep.Phases.PhaseCounts(),
		turn: rep.Phases.PhasePercentiles()[trace.PhaseTurnWait], user: rep.Phases.UserTime()}
	for _, n := range x.counts {
		x.spans += n
	}
	return x
}

func syncOps(st *rfdet.Stats) uint64 {
	return st.Locks + st.Unlocks + st.Waits + st.Signals + st.Forks + st.Joins + st.Barriers + st.AtomicsOps
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// tracedDef is a per-layer metric of the traced pass: read gives its value
// for one execution and the pass reports the median over executions.
// trace.overhead_pct has no read: it compares the pass's two medians.
type tracedDef struct {
	metricDef
	read func(x *tracedExec) float64
}

func phaseMs(p trace.Phase) func(*tracedExec) float64 {
	return func(x *tracedExec) float64 { return ms(x.totals[p]) }
}

func count(f func(st *rfdet.Stats) uint64) func(*tracedExec) float64 {
	return func(x *tracedExec) float64 { return float64(f(x.st)) }
}

// tracedNotes labels the values that are computed from others, not measured.
var tracedNotes = map[string]string{
	"core.collect_scan_est_ms": "computed: core.collect_scanned x 2 x vclock.leq_ns",
}

// tracedMetrics, grouped by the module that owns the work. Times are summed
// over all threads of an execution, so they can exceed its wall time.
var tracedMetrics = []tracedDef{
	{metricDef{"kendo.turn_wait_ms", "ms"}, phaseMs(trace.PhaseTurnWait)},
	{metricDef{"kendo.turn_wait_us_p50", "us"}, func(x *tracedExec) float64 { return us(x.turn.P50) }},
	{metricDef{"kendo.turn_wait_us_p99", "us"}, func(x *tracedExec) float64 { return us(x.turn.P99) }},
	{metricDef{"kendo.turn_waits", "count"}, count(func(st *rfdet.Stats) uint64 { return st.TurnWaits })},
	{metricDef{"kendo.turn_wait_ratio", "ratio"}, func(x *tracedExec) float64 { return ratio(x.st.TurnWaits, syncOps(x.st)) }},

	{metricDef{"core.sync_ops", "count"}, count(syncOps)},
	{metricDef{"core.block_ms", "ms"}, phaseMs(trace.PhaseBlock)},
	{metricDef{"core.monitor_wait_ms", "ms"}, phaseMs(trace.PhaseMonitorWait)},
	{metricDef{"core.monitor_acquires", "count"}, count(func(st *rfdet.Stats) uint64 { return st.MonitorAcquires })},
	{metricDef{"core.premerge_ms", "ms"}, phaseMs(trace.PhasePremerge)},
	{metricDef{"core.collect_scanned", "count"}, count(func(st *rfdet.Stats) uint64 { return st.CollectScanned })},
	{metricDef{"core.collect_useful_ratio", "ratio"}, func(x *tracedExec) float64 { return ratio(x.st.SlicesPropagated, x.st.CollectScanned) }},
	// Two Leq calls per scanned slice pointer.
	{metricDef{"core.collect_scan_est_ms", "ms"}, func(x *tracedExec) float64 { return float64(x.st.CollectScanned) * 2 * x.leqNs / 1e6 }},
	{metricDef{"core.slices_created", "count"}, count(func(st *rfdet.Stats) uint64 { return st.SlicesCreated })},
	{metricDef{"core.slices_propagated", "count"}, count(func(st *rfdet.Stats) uint64 { return st.SlicesPropagated })},
	{metricDef{"core.slices_filtered", "count"}, count(func(st *rfdet.Stats) uint64 { return st.SlicesFilteredLow + st.SlicesFilteredPremerged })},
	{metricDef{"core.rendezvous_ops", "count"}, count(func(st *rfdet.Stats) uint64 { return st.RendezvousOps })},
	{metricDef{"core.cross_shard_acquires", "count"}, count(func(st *rfdet.Stats) uint64 { return st.CrossShardAcquires })},
	{metricDef{"core.plan_reuse", "count"}, count(func(st *rfdet.Stats) uint64 { return st.PlanReuse })},
	// Thread lifetime under no span: application compute, the load/store
	// path and the collection scan, which no phase covers today.
	{metricDef{"core.unattributed_ms", "ms"}, func(x *tracedExec) float64 { return ms(x.user) }},

	{metricDef{"mem.diff_ms", "ms"}, phaseMs(trace.PhaseDiff)},
	{metricDef{"mem.plan_build_ms", "ms"}, phaseMs(trace.PhasePlanBuild)},
	{metricDef{"mem.apply_ms", "ms"}, phaseMs(trace.PhaseApply)},
	{metricDef{"mem.lazy_flush_ms", "ms"}, phaseMs(trace.PhaseLazyFlush)},
	{metricDef{"mem.diff_bytes_scanned", "count"}, count(func(st *rfdet.Stats) uint64 { return st.DiffBytesScanned })},
	{metricDef{"mem.diff_skip_ratio", "ratio"}, func(x *tracedExec) float64 {
		return ratio(x.st.DiffBytesSkipped, x.st.DiffBytesScanned+x.st.DiffBytesSkipped)
	}},
	{metricDef{"mem.bytes_propagated", "count"}, count(func(st *rfdet.Stats) uint64 { return st.BytesPropagated })},
	{metricDef{"mem.coalesced_ratio", "ratio"}, func(x *tracedExec) float64 { return ratio(x.st.BytesCoalescedAway, x.st.BytesPropagated) }},
	{metricDef{"mem.mem_ops", "count"}, count(func(st *rfdet.Stats) uint64 { return st.MemOps() })},
	{metricDef{"mem.stores_with_copy", "count"}, count(func(st *rfdet.Stats) uint64 { return st.StoresWithCopy })},

	{metricDef{"slicestore.metadata_peak_kb", "KiB"}, func(x *tracedExec) float64 { return float64(x.st.MetadataBytes) / 1024 }},
	{metricDef{"slicestore.arena_kb_interned", "KiB"}, func(x *tracedExec) float64 { return float64(x.st.ArenaBytesInterned) / 1024 }},
	{metricDef{"slicestore.arena_reuse_ratio", "ratio"}, func(x *tracedExec) float64 {
		return ratio(x.st.ArenaChunksReused, x.st.ArenaChunksReused+x.st.ArenaChunksAllocated)
	}},
	{metricDef{"slicestore.gc_passes", "count"}, count(func(st *rfdet.Stats) uint64 { return st.GCCount })},
	{metricDef{"slicestore.gc_empty_passes", "count"}, count(func(st *rfdet.Stats) uint64 { return st.GCEmptyPasses })},

	{metricDef{"vtime.virtual_ms", "ms"}, func(x *tracedExec) float64 { return float64(x.vtime) / 1e6 }},
	{metricDef{"trace.overhead_pct", "%"}, nil},
	{metricDef{"trace.spans_per_run", "count"}, func(x *tracedExec) float64 { return float64(x.spans) }},
}
