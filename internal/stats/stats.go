// Package stats provides the small numeric helpers used when aggregating
// benchmark results (geometric means, maxima), plus the wall-clock
// plumbing deterministic packages read the host clock through.
package stats

import (
	"math"
	"time"
)

// Now returns the current wall-clock time. Deterministic packages
// (internal/core, internal/mem, internal/slicestore) must take wall-clock
// readings through Now/Since rather than calling time.Now directly: the
// detvet wallclock analyzer flags direct calls, and funneling them here makes
// every observability-only reading auditable in one place. Wall-clock values
// obtained this way must never feed outputs, virtual times, or traces.
func Now() time.Time { return time.Now() }

// Since returns the wall-clock duration elapsed since t. See Now.
func Since(t time.Time) time.Duration { return time.Since(t) }

// GeoMean returns the geometric mean of xs (0 for empty input). Non-positive
// values are skipped, as they would be measurement errors for time ratios.
func GeoMean(xs []float64) float64 {
	var s float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// Max returns the maximum of xs (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
