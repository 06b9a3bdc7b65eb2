package lockcheck

import "sync"

// Class-form guardedby (Type.field) covers state whose guard lives in
// another struct: any held instance of that mutex class satisfies the
// access, the way core's thread methods reach the fields exec.mu guards.

type registry struct {
	mu      sync.Mutex
	entries []*entry //detvet:guardedby mu
}

type entry struct {
	// val is owned by the registry that holds this entry.
	val int //detvet:guardedby registry.mu
}

func readEntry(r *registry, i int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[i].val
}

func writeEntry(r *registry, e *entry) {
	r.mu.Lock()
	e.val = 7
	r.mu.Unlock()
}

func strayEntryRead(e *entry) int {
	return e.val // want "read of e.val without holding registry.mu"
}
