package core

// waitq is the index-based FIFO backing the monitor wait queues (mutex
// grant queues, condition-variable wait queues). The seed popped with
// q = q[1:], which advances the slice header without zeroing the popped
// head: a hot mutex or condvar pinned every waiter entry ever enqueued in
// the backing array for the sync var's lifetime, and the array's front
// capacity was burned forever so the backing kept growing. waitq instead
// keeps an explicit head index, zeroes each vacated slot on pop (mirroring
// the tail-zeroing slicestore.TrimList does), and rewinds to the start of
// the backing array whenever the queue drains — so steady-state
// push/pop traffic recycles one small allocation.
type waitq[T any] struct {
	buf  []T
	head int
}

// len returns the number of queued entries.
func (q *waitq[T]) len() int { return len(q.buf) - q.head }

// push appends v at the tail.
func (q *waitq[T]) push(v T) { q.buf = append(q.buf, v) }

// pop removes and returns the head entry, zeroing the vacated slot so the
// backing array does not retain it. Callers check len() first, as with the
// seed's slice-header queues.
func (q *waitq[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// items returns the queued entries in order, as a read-only view into the
// backing array (valid until the next push or pop).
func (q *waitq[T]) items() []T { return q.buf[q.head:] }
