package core

import "testing"

func TestWaitqFIFO(t *testing.T) {
	var q waitq[int]
	for i := 0; i < 5; i++ {
		q.push(i)
	}
	if q.len() != 5 {
		t.Fatalf("len = %d, want 5", q.len())
	}
	if it := q.items(); it[0] != 0 || it[4] != 4 {
		t.Fatalf("items = %v", it)
	}
	for i := 0; i < 5; i++ {
		if got := q.pop(); got != i {
			t.Fatalf("pop #%d = %d", i, got)
		}
	}
	if q.len() != 0 {
		t.Fatalf("len after drain = %d", q.len())
	}
}

// TestWaitqPopReleasesEntries pins the satellite fix for the queue retention
// bug: the seed's q = q[1:] pops left every dequeued entry reachable from
// the backing array. waitq must zero the vacated slot so popped pointers
// become collectable.
func TestWaitqPopReleasesEntries(t *testing.T) {
	var q waitq[*int]
	a, b := new(int), new(int)
	q.push(a)
	q.push(b)
	if got := q.pop(); got != a {
		t.Fatal("wrong head")
	}
	// One entry remains, so the backing array has not rewound; the popped
	// slot must have been zeroed rather than still pinning a.
	if q.head != 1 {
		t.Fatalf("head = %d, want 1", q.head)
	}
	if q.buf[0] != nil {
		t.Fatal("popped slot still pins its entry")
	}
}

// TestWaitqSteadyStateRecyclesBacking verifies the drain rewind: alternating
// push/pop traffic on a hot sync var must not grow the backing array without
// bound the way the seed's slice-header queues did (each q[1:] burned the
// front capacity forever).
func TestWaitqSteadyStateRecyclesBacking(t *testing.T) {
	var q waitq[int]
	for i := 0; i < 10000; i++ {
		q.push(i)
		q.push(i + 1)
		q.pop()
		q.pop()
	}
	if c := cap(q.buf); c > 16 {
		t.Fatalf("backing capacity grew to %d under steady-state traffic", c)
	}
	if q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained queue not rewound: head=%d len=%d", q.head, len(q.buf))
	}
}

func TestWaitqItemsView(t *testing.T) {
	var q waitq[int]
	q.push(1)
	q.push(2)
	q.push(3)
	q.pop()
	got := q.items()
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("items = %v", got)
	}
}
