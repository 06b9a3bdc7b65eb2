package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		threads, repeat int
		ok              bool
	}{
		{4, 1, true},
		{1, 20, true},
		{0, 1, false},
		{-3, 1, false},
		{4, 0, false},
		{4, -1, false},
	} {
		if err := checkFlags(c.threads, c.repeat); (err == nil) != c.ok {
			t.Errorf("checkFlags(threads %d, repeat %d) = %v, want ok %v", c.threads, c.repeat, err, c.ok)
		}
	}
}
