package core

import (
	"runtime"
	"testing"

	"rfdet/internal/api"
	"rfdet/internal/workloads"
)

// TestEveryStatsCounterIsWired: every api.Stats field that its tag does not
// declare dead is counted by some path the runtime really runs, and every dead
// field stays 0. The server workload at test size under five option stacks —
// the default, the pf monitor, race detection, the eager stack and a metadata
// space small enough to collect — between them reach every live counter, at
// GOMAXPROCS 1 and 2. A counter whose only increment sits on a path no run
// takes fails here.
func TestEveryStatsCounterIsWired(t *testing.T) {
	stack := func(edit func(*Options)) Options {
		opts := DefaultOptions()
		edit(&opts)
		return opts
	}
	stacks := map[string]Options{
		"default":    DefaultOptions(),
		"pf":         stack(func(o *Options) { o.Monitor = MonitorPF }),
		"racedetect": stack(func(o *Options) { o.RaceDetect = true }),
		"eager":      stack(func(o *Options) { o.LazyWrites = false }),
		"32KiB":      stack(func(o *Options) { o.MetadataCapacity = 32 << 10 }),
	}
	prog := workloads.Server(workloads.Config{Threads: 4, Size: workloads.SizeTest})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		counted := map[string]bool{}
		for name, opts := range stacks {
			rep := run(t, opts, prog)
			rep.Stats.Each(func(f api.StatsField, v uint64) {
				if f.Dead && v != 0 {
					t.Errorf("P=%d %s: dead counter %s = %d", procs, name, f.Name, v)
				}
				counted[f.Name] = counted[f.Name] || v != 0
			})
		}
		new(api.Stats).Each(func(f api.StatsField, _ uint64) {
			if !f.Dead && !counted[f.Name] {
				t.Errorf("P=%d: %s counter %s is 0 under every stack", procs, f.Layer, f.Name)
			}
		})
	}
}
