package vclock

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genVC builds a bounded random clock from quick-generated values.
func genVC(r *rand.Rand) VC {
	n := r.Intn(6)
	v := make(VC, n)
	for i := range v {
		v[i] = uint64(r.Intn(5))
	}
	return v
}

func qcfg() *quick.Config {
	return &quick.Config{
		MaxCount: 2000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			for i := range args {
				args[i] = reflect.ValueOf(genVC(r))
			}
		},
	}
}

// three adapts a 3-clock property to quick's reflect API.
type three func(a, b, c VC) bool

func checkThree(t *testing.T, name string, f three) {
	t.Helper()
	wrapped := func(a, b, c VC) bool { return f(a, b, c) }
	if err := quick.Check(wrapped, qcfg()); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

func TestLeqReflexive(t *testing.T) {
	f := func(a VC) bool { return a.Leq(a) }
	if err := quick.Check(f, qcfg()); err != nil {
		t.Error(err)
	}
}

func TestLeqAntisymmetric(t *testing.T) {
	f := func(a, b VC) bool {
		if a.Leq(b) && b.Leq(a) {
			return a.Compare(b) == Same
		}
		return true
	}
	if err := quick.Check(f, qcfg()); err != nil {
		t.Error(err)
	}
}

func TestLeqTransitive(t *testing.T) {
	checkThree(t, "transitivity", func(a, b, c VC) bool {
		if a.Leq(b) && b.Leq(c) {
			return a.Leq(c)
		}
		return true
	})
}

func TestJoinIsLUB(t *testing.T) {
	checkThree(t, "join-lub", func(a, b, c VC) bool {
		j := a.Clone().Join(b)
		// Upper bound:
		if !a.Leq(j) || !b.Leq(j) {
			return false
		}
		// Least: any other upper bound dominates the join.
		if a.Leq(c) && b.Leq(c) && !j.Leq(c) {
			return false
		}
		return true
	})
}

func TestMeetIsGLB(t *testing.T) {
	checkThree(t, "meet-glb", func(a, b, c VC) bool {
		m := Meet(a, b)
		if !m.Leq(a) || !m.Leq(b) {
			return false
		}
		if c.Leq(a) && c.Leq(b) && !c.Leq(m) {
			return false
		}
		return true
	})
}

func TestLessIsStrict(t *testing.T) {
	f := func(a, b VC) bool {
		if a.Less(b) {
			return a.Leq(b) && a.Compare(b) != Same && !b.Less(a)
		}
		return true
	}
	if err := quick.Check(f, qcfg()); err != nil {
		t.Error(err)
	}
}

func TestConcurrentSymmetric(t *testing.T) {
	f := func(a, b VC) bool {
		return (a.Compare(b) == Unordered) == (b.Compare(a) == Unordered)
	}
	if err := quick.Check(f, qcfg()); err != nil {
		t.Error(err)
	}
}

func TestTrichotomyish(t *testing.T) {
	// Exactly one of: a<b, b<a, a==b, a||b.
	f := func(a, b VC) bool {
		cnt := 0
		if a.Less(b) {
			cnt++
		}
		if b.Less(a) {
			cnt++
		}
		if a.Compare(b) == Same {
			cnt++
		}
		if a.Compare(b) == Unordered {
			cnt++
		}
		return cnt == 1
	}
	if err := quick.Check(f, qcfg()); err != nil {
		t.Error(err)
	}
}

func TestBumpMakesStrictlyLater(t *testing.T) {
	v := New(3).Set(0, 1).Set(1, 2)
	w := v.Clone().Bump(1)
	if !v.Less(w) {
		t.Fatalf("%v should be < %v", v, w)
	}
	if w.Get(1) != 3 {
		t.Fatalf("component 1 = %d, want 3", w.Get(1))
	}
}

func TestGrowthAndMixedLengths(t *testing.T) {
	short := VC{1, 2}
	long := VC{1, 2, 0, 0}
	if short.Compare(long) != Same {
		t.Fatal("trailing zeros must not matter")
	}
	if short.Less(long) || long.Less(short) {
		t.Fatal("equal clocks are not strictly ordered")
	}
	grown := short.Set(5, 7)
	if grown.Get(5) != 7 || grown.Get(4) != 0 {
		t.Fatalf("Set/grow wrong: %v", grown)
	}
	if grown.Get(99) != 0 {
		t.Fatal("out-of-range Get must be 0")
	}
}

func TestMeetAll(t *testing.T) {
	if MeetAll(nil) != nil {
		t.Fatal("MeetAll(nil) should be nil")
	}
	m := MeetAll([]VC{{3, 5, 2}, {4, 1}, {3, 2, 9}})
	// Componentwise minimum, with missing components treated as zero.
	want := VC{3, 1}
	if m.Compare(want) != Same {
		t.Fatalf("MeetAll = %v, want %v", m, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := VC{1, 2, 3}
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone must not share backing storage")
	}
	if nilClone := (VC)(nil).Clone(); nilClone != nil {
		t.Fatal("nil clone should be nil")
	}
}

func TestString(t *testing.T) {
	if s := (VC{1, 0, 2, 0, 0}).String(); s != "[1 0 2]" {
		t.Fatalf("String = %q", s)
	}
	if s := (VC(nil)).String(); s != "[]" {
		t.Fatalf("String = %q", s)
	}
}
