package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean should be 0")
	}
	if !approx(GeoMean([]float64{2, 8}), 4) {
		t.Fatalf("geomean = %v", GeoMean([]float64{2, 8}))
	}
	// Non-positive values are skipped, not fatal.
	if !approx(GeoMean([]float64{0, -1, 4}), 4) {
		t.Fatal("geomean should skip non-positive values")
	}
	if GeoMean([]float64{0}) != 0 {
		t.Fatal("all-non-positive geomean should be 0")
	}
}

func TestMinMax(t *testing.T) {
	if Max([]float64{3, -1, 7, 2}) != 7 {
		t.Fatal("max wrong")
	}
	if Max(nil) != 0 {
		t.Fatal("empty max should be 0")
	}
}

// Properties: the geometric mean of positive values lies between min and
// max, and is bounded above by the arithmetic mean (AM–GM).
func TestGeoMeanProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, sum := math.Inf(1), 0.0
		for i, v := range raw {
			xs[i] = float64(v%1000) + 1 // positive
			lo = math.Min(lo, xs[i])
			sum += xs[i]
		}
		g := GeoMean(xs)
		return g >= lo-1e-9 && g <= Max(xs)+1e-9 && g <= sum/float64(len(xs))+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
