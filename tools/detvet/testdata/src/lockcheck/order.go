package lockcheck

import "sync"

// The //detvet:lockorder ranks form a global acquisition order; acquiring a
// lower rank while holding a higher one is an inversion.

type outer struct {
	mu sync.Mutex //detvet:lockorder 30
	x  int        //detvet:guardedby mu
}

type inner struct {
	mu sync.Mutex //detvet:lockorder 40
	y  int        //detvet:guardedby mu
}

func ordered(o *outer, i *inner) {
	o.mu.Lock()
	i.mu.Lock()
	i.y = o.x
	i.mu.Unlock()
	o.mu.Unlock()
}

func inverted(o *outer, i *inner) {
	i.mu.Lock()
	o.mu.Lock() // want "lock-order inversion: acquiring outer.mu .rank 30. while holding inner.mu .rank 40."
	o.x = i.y
	o.mu.Unlock()
	i.mu.Unlock()
}

func sameClassPair(a, b *inner) {
	// Two instances of one class may be held together: which goes first is
	// a runtime invariant the ranks do not express.
	a.mu.Lock()
	b.mu.Lock()
	b.y = a.y
	b.mu.Unlock()
	a.mu.Unlock()
}
