// Package stats provides the small numeric helpers used when aggregating
// benchmark results (means, geometric means, normalization), plus the
// wall-clock plumbing deterministic packages use to accumulate observability
// nanos (Stats.DiffNanos and friends).
package stats

import (
	"math"
	"sync/atomic"
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

// Striped is a set of independently updated int64 cells, one per stripe,
// each padded out to its own cache line, so that concurrent bookkeeping from
// different stripes never bounces a shared cache line. Its one user is the
// epoch store's per-stripe usage attribution. Stripe indices are taken modulo
// the stripe count, so any non-negative hint (a thread id) is a valid stripe.
type Striped struct {
	cells []stripedCell
}

// stripedCell pads each counter to 64 bytes so adjacent stripes do not
// false-share a cache line.
type stripedCell struct {
	n atomic.Int64
	_ [56]byte
}

// NewStriped returns a striped counter with n stripes (minimum 1).
func NewStriped(n int) *Striped {
	if n < 1 {
		n = 1
	}
	return &Striped{cells: make([]stripedCell, n)}
}

// Len returns the stripe count.
func (s *Striped) Len() int { return len(s.cells) }

func (s *Striped) stripe(i int) *stripedCell {
	i %= len(s.cells)
	if i < 0 {
		i += len(s.cells)
	}
	return &s.cells[i]
}

// Add adds delta to the given stripe and returns that stripe's post-add
// value.
func (s *Striped) Add(stripe int, delta int64) int64 {
	return s.stripe(stripe).n.Add(delta)
}

// Load returns the given stripe's current value.
func (s *Striped) Load(stripe int) int64 { return s.stripe(stripe).n.Load() }

// Sum returns the sum over all stripes. It is not a linearizable snapshot
// under concurrent Adds; callers needing an exact budget keep a separate
// single atomic (see slicestore.MapStore.used).
func (s *Striped) Sum() int64 {
	var t int64
	for i := range s.cells {
		t += s.cells[i].n.Load()
	}
	return t
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

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

// Min returns the minimum of xs (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
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

// Ratio returns num/den, or 0 when den is 0. Used for speedup and
// normalization figures where a missing baseline should read as "no data"
// rather than Inf/NaN.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}
