package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
	if !approx(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("mean wrong")
	}
}

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
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatal("min/max wrong")
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty min/max should be 0")
	}
}

func TestRatio(t *testing.T) {
	if !approx(Ratio(6, 2), 3) {
		t.Fatalf("Ratio(6,2) = %v", Ratio(6, 2))
	}
	if Ratio(1, 0) != 0 {
		t.Fatal("zero denominator should yield 0, not Inf")
	}
	if Ratio(0, 5) != 0 {
		t.Fatal("zero numerator should yield 0")
	}
}

func TestStddev(t *testing.T) {
	if Stddev([]float64{5}) != 0 {
		t.Fatal("single-element stddev should be 0")
	}
	if !approx(Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2) {
		t.Fatalf("stddev = %v", Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}))
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
		for i, v := range raw {
			xs[i] = float64(v%1000) + 1 // positive
		}
		g := GeoMean(xs)
		return g >= Min(xs)-1e-9 && g <= Max(xs)+1e-9 && g <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
