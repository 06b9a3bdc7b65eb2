package lockcheck

import "sync"

// The model is sync.Mutex's Lock and Unlock. Each construct it leaves out
// produces a finding rather than passing unchecked.

// A sync.RWMutex field is reported, its calls are reported, and the fields it
// guards read as unheld under it.
type table struct {
	rw   sync.RWMutex   // want "sync.RWMutex field in table: lockcheck models sync.Mutex only"
	rows map[string]int //detvet:guardedby rw
}

func readShared(t *table, k string) int {
	t.rw.RLock() // want "t.rw.RLock is outside lockcheck's model"
	defer t.rw.RUnlock()
	return t.rows[k] // want "read of t.rows without holding rw"
}

func writeExclusive(t *table, k string) {
	t.rw.Lock()   // want "t.rw.Lock is outside lockcheck's model"
	t.rows[k] = 1 // want "write of t.rows without holding rw"
	t.rw.Unlock() // want "t.rw.Unlock is outside lockcheck's model"
}

// TryLock is reported, and the lock does not count as held on either branch.
func tryDirect(c *counter) {
	if c.mu.TryLock() { // want "c.mu.TryLock is outside lockcheck's model"
		c.n++         // want "write of c.n without holding mu"
		c.mu.Unlock() // want "unlock of c.mu, which is not provably held"
	}
}

// A guardedby spec names one mutex; `|` alternatives are not a spec.
type either struct {
	a, b sync.Mutex
	v    int //detvet:guardedby a|b // want "guardedby a.b: not a sibling mutex field of either"
}
