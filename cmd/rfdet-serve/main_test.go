package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		threads, replicas int
		ok                bool
	}{
		{4, 3, true},
		{1, 2, true},
		{0, 3, false},
		{4, 1, false},
		{4, 0, false},
		{-2, 3, false},
	} {
		if err := checkFlags(c.threads, c.replicas); (err == nil) != c.ok {
			t.Errorf("checkFlags(threads %d, replicas %d) = %v, want ok %v", c.threads, c.replicas, err, c.ok)
		}
	}
}
