package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// referenceCompare derives the ordering from the two Leq probes — the
// specification Compare's single-pass implementation must match.
func referenceCompare(v, w VC) Order {
	le, ge := v.Leq(w), w.Leq(v)
	switch {
	case le && ge:
		return Same
	case le:
		return Before
	case ge:
		return After
	default:
		return Unordered
	}
}

// TestCompareMatchesReference property-checks Compare against the
// two-probe reference over random clock pairs, including mixed lengths.
func TestCompareMatchesReference(t *testing.T) {
	f := func(a, b []uint16) bool {
		mk := func(xs []uint16) VC {
			v := make(VC, len(xs))
			for i, x := range xs {
				v[i] = uint64(x % 4) // small components force collisions
			}
			return v
		}
		v, w := mk(a), mk(b)
		return v.Compare(w) == referenceCompare(v, w)
	}
	cfg := &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCompareAntisymmetric: swapping the operands flips Before/After and
// preserves Same/Unordered.
func TestCompareAntisymmetric(t *testing.T) {
	flip := map[Order]Order{Same: Same, Before: After, After: Before, Unordered: Unordered}
	f := func(a, b []uint16) bool {
		mk := func(xs []uint16) VC {
			v := make(VC, len(xs))
			for i, x := range xs {
				v[i] = uint64(x % 3)
			}
			return v
		}
		v, w := mk(a), mk(b)
		return w.Compare(v) == flip[v.Compare(w)]
	}
	cfg := &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCompareEdges pins down the concurrency edge cases the race detector
// leans on.
func TestCompareEdges(t *testing.T) {
	cases := []struct {
		name string
		v, w VC
		want Order
	}{
		{"nil vs nil", nil, nil, Same},
		{"nil vs zero", nil, VC{0, 0}, Same},
		{"trailing zeros", VC{1, 2, 0, 0}, VC{1, 2}, Same},
		{"nil before any", nil, VC{0, 1}, Before},
		{"single component up", VC{1}, VC{2}, Before},
		{"single component down", VC{3}, VC{2}, After},
		{"classic concurrent", VC{1, 0}, VC{0, 1}, Unordered},
		{"equal prefix divergent suffix", VC{5, 5, 1, 0}, VC{5, 5, 0, 1}, Unordered},
		{"longer but dominated", VC{1, 1}, VC{2, 2, 2}, Before},
		{"longer and dominating", VC{2, 2, 2}, VC{1, 1}, After},
		{"length-based concurrency", VC{1}, VC{0, 7}, Unordered},
		{"one common one disjoint", VC{3, 0, 4}, VC{3, 9, 0}, Unordered},
	}
	for _, c := range cases {
		if got := c.v.Compare(c.w); got != c.want {
			t.Errorf("%s: %v.Compare(%v)=%v, want %v", c.name, c.v, c.w, got, c.want)
		}
		// Cross-check Less against the same expectation.
		if lt := c.v.Less(c.w); lt != (c.want == Before) {
			t.Errorf("%s: Less=%v disagrees with Compare=%v", c.name, lt, c.want)
		}
	}
}

// TestConcurrentAfterJoinOrdered: joining either side of a concurrent pair
// with the other orders them — the acquire-side update that makes previously
// racy accesses ordered.
func TestConcurrentAfterJoinOrdered(t *testing.T) {
	v, w := VC{3, 0, 1}, VC{0, 2, 5}
	if v.Compare(w) != Unordered {
		t.Fatal("fixture not concurrent")
	}
	j := v.Clone().Join(w)
	if got := w.Compare(j); got != Before && got != Same {
		t.Fatalf("w vs join: %v", got)
	}
	if got := j.Compare(v); got != After {
		t.Fatalf("join vs v: %v", got)
	}
}
