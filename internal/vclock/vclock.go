// Package vclock implements the vector clocks (Fidge/Mattern partial-order
// timestamps) that RFDet uses to describe the happens-before relation between
// slices (paper §4.2). Component i of a clock counts slice endings performed
// by thread i, so given two slices A and B, A happens-before B if and only if
// Time(A) ≤ Time(B) and Time(A) ≠ Time(B).
package vclock

import (
	"fmt"
	"strings"
)

// VC is a vector clock. Index i is thread i's component; missing trailing
// components are implicitly zero, so clocks of different lengths are
// comparable. The zero value (nil) is the clock at the beginning of time.
type VC []uint64

// New returns a zero clock sized for n threads.
func New(n int) VC { return make(VC, n) }

// Clone returns an independent copy of v.
func (v VC) Clone() VC {
	if len(v) == 0 {
		return nil
	}
	c := make(VC, len(v))
	copy(c, v)
	return c
}

// Get returns component i, treating out-of-range components as zero.
func (v VC) Get(i int) uint64 {
	if i < 0 || i >= len(v) {
		return 0
	}
	return v[i]
}

// Set assigns component i, growing the clock if needed, and returns the
// (possibly reallocated) clock.
func (v VC) Set(i int, val uint64) VC {
	v = v.grow(i + 1)
	v[i] = val
	return v
}

// Bump increments component i by one, growing the clock if needed, and
// returns the (possibly reallocated) clock.
func (v VC) Bump(i int) VC {
	v = v.grow(i + 1)
	v[i]++
	return v
}

func (v VC) grow(n int) VC {
	if len(v) >= n {
		return v
	}
	g := make(VC, n)
	copy(g, v)
	return g
}

// Leq reports whether v ≤ w componentwise. Leq is the happens-before-or-equal
// test: a slice with time v is visible at an event with time w iff v ≤ w.
func (v VC) Leq(w VC) bool {
	for i, x := range v {
		if x > w.Get(i) {
			return false
		}
	}
	return true
}

// Less reports whether v < w, i.e. v ≤ w and v ≠ w. This is the strict
// happens-before test of §4.2.
func (v VC) Less(w VC) bool {
	return v.Leq(w) && !w.Leq(v)
}

// Order is the outcome of comparing two clocks under the happens-before
// partial order.
type Order int8

const (
	// Same: the clocks denote the same instant.
	Same Order = iota
	// Before: the receiver happens-before the argument.
	Before
	// After: the argument happens-before the receiver.
	After
	// Unordered: the clocks are concurrent (incomparable).
	Unordered
)

func (o Order) String() string {
	switch o {
	case Same:
		return "same"
	case Before:
		return "before"
	case After:
		return "after"
	default:
		return "unordered"
	}
}

// Compare classifies v against w in a single componentwise pass, equivalent
// to (but cheaper than) probing Leq in both directions. Missing trailing
// components compare as zero, so clocks of different lengths are comparable.
func (v VC) Compare(w VC) Order {
	n := len(v)
	if len(w) > n {
		n = len(w)
	}
	var less, greater bool
	for i := 0; i < n; i++ {
		x, y := v.Get(i), w.Get(i)
		switch {
		case x < y:
			less = true
		case x > y:
			greater = true
		}
		if less && greater {
			return Unordered
		}
	}
	switch {
	case less:
		return Before
	case greater:
		return After
	default:
		return Same
	}
}

// Join sets v to the least upper bound v ⊔ w and returns the (possibly
// reallocated) clock. Join is the acquire-side clock update of §4.2:
// timestamp ⊔ Time(R).
func (v VC) Join(w VC) VC {
	v = v.grow(len(w))
	for i, x := range w {
		if x > v[i] {
			v[i] = x
		}
	}
	return v
}

// Meet returns the greatest lower bound of v and w as a fresh clock. The meet
// over all threads' clocks is the garbage-collection frontier (§4.5): slices
// at or below it have been seen by every thread.
func Meet(v, w VC) VC {
	n := len(v)
	if len(w) < n {
		n = len(w)
	}
	m := make(VC, n)
	for i := 0; i < n; i++ {
		x, y := v[i], w[i]
		if y < x {
			x = y
		}
		m[i] = x
	}
	return m
}

// MeetAll returns the componentwise minimum of all clocks. With no clocks it
// returns nil (the bottom clock).
func MeetAll(clocks []VC) VC {
	if len(clocks) == 0 {
		return nil
	}
	m := clocks[0].Clone()
	for _, c := range clocks[1:] {
		// Meet truncates to the shorter length; components beyond the
		// shorter clock are implicitly zero and thus minimal.
		m = Meet(m, c)
	}
	return m
}

// String renders the clock as "[a b c]" with trailing zeros trimmed.
func (v VC) String() string {
	n := len(v)
	for n > 0 && v[n-1] == 0 {
		n--
	}
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", v[i])
	}
	b.WriteByte(']')
	return b.String()
}
