package main

import (
	"fmt"
	"sort"
)

// rng is a splitmix64 generator: every synthetic input the benchmark makes
// (request-log seeds, layer-driver addresses and extents) is drawn from one
// seeded with -seed, so the same seed gives the same inputs.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank p-th percentile of an ascending list (the
// same rule as trace.Report.PhasePercentiles); 0 for an empty list.
func quantile(asc []float64, p int) float64 {
	n := len(asc)
	if n == 0 {
		return 0
	}
	i := (n*p + 99) / 100
	if i < 1 {
		i = 1
	}
	if i > n {
		i = n
	}
	return asc[i-1]
}

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// percentile is quantile for a percentile that is reported as a metric: it
// refuses one with fewer than tailSamples samples beyond it, because such a
// value is set by a handful of outliers and does not repeat.
func percentile(asc []float64, p int) (float64, error) {
	if beyond := len(asc) * (100 - p) / 100; beyond < tailSamples {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, need %d", p, len(asc), beyond, tailSamples)
	}
	return quantile(asc, p), nil
}

func median(xs []float64) float64 { return quantile(sorted(xs), 50) }

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives — the figure the acceptance rule for
// this benchmark is stated in. 0 when xs has fewer than two values.
func quartileSpread(xs []float64) float64 {
	m := len(xs)
	if m < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}
