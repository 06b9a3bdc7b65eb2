package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		threads, runs int
		ok            bool
	}{
		{0, 100, true},
		{4, 2, true},
		{-1, 100, false},
		{0, 1, false},
		{0, 0, false},
		{8, -5, false},
	} {
		if err := checkFlags(c.threads, c.runs); (err == nil) != c.ok {
			t.Errorf("checkFlags(threads %d, runs %d) = %v, want ok %v", c.threads, c.runs, err, c.ok)
		}
	}
}
