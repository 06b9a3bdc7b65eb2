package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		threads, repeats, runs, replicas int
		ok                               bool
	}{
		{4, 1, 20, 3, true},
		{1, 1, 2, 2, true},
		{0, 1, 20, 3, false},
		{4, 0, 20, 3, false},
		{4, 1, 0, 3, false},
		{4, 1, 1, 3, false},
		{4, 1, -1, 3, false},
		{4, 1, 20, 1, false},
		{4, 1, 20, 0, false},
	} {
		if err := checkFlags(c.threads, c.repeats, c.runs, c.replicas); (err == nil) != c.ok {
			t.Errorf("checkFlags(threads %d, repeats %d, runs %d, replicas %d) = %v, want ok %v",
				c.threads, c.repeats, c.runs, c.replicas, err, c.ok)
		}
	}
}
