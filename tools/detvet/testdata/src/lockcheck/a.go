package lockcheck

import "sync"

// counter exercises the core guardedby discipline: the paragraph rule, the
// must-hold lattice over straight-line code, branches and defers, and the
// //detvet:lockcheck suppression escape hatch.
type counter struct {
	mu sync.Mutex
	n  int //detvet:guardedby mu
	m  int // want "shares a declaration paragraph with mutex mu"

	loose int // its own paragraph: no annotation required
}

func lockedWrite(c *counter) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func lockedReadDefer(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func unlockedWrite(c *counter) {
	c.n++ // want "write of c.n without holding mu"
}

func unlockedRead(c *counter) int {
	return c.n // want "read of c.n without holding mu"
}

func earlyReturn(c *counter, skip bool) {
	c.mu.Lock()
	if skip {
		c.mu.Unlock()
		return
	}
	c.n = 1
	c.mu.Unlock()
}

func branchyUnlock(c *counter, p bool) {
	c.mu.Lock()
	if p {
		c.mu.Unlock()
	} else {
		c.mu.Unlock()
	}
	c.n = 2 // want "write of c.n without holding mu"
}

func loopBalanced(c *counter, n int) {
	for i := 0; i < n; i++ {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
}

func leaky(c *counter) {
	c.mu.Lock() // want "may still be held when leaky returns"
	c.n = 3
}

func doubleLock(c *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mu.Lock() // want "second acquisition"
	c.n++
}

func unlockNotHeld(c *counter) {
	c.mu.Unlock() // want "not provably held"
}

// fresh writes a counter no other goroutine can see yet. lockcheck has no
// thread-local exemption: the write needs the lock or a //detvet:lockcheck.
func fresh() *counter {
	c := &counter{}
	c.n = 5 // want "write of c.n without holding mu"
	return c
}

func suppressed(c *counter) int {
	//detvet:lockcheck single-threaded teardown, all workers joined
	return c.n
}

func deferredFuncLit(c *counter) {
	c.mu.Lock()
	defer func() {
		c.mu.Unlock()
	}()
	c.n++
}

// panicUnwind mirrors the abort path of core's exec.enter: the explicit panic
// terminates its branch, so only the locked fall-through reaches the
// exit-balance check and the acquires annotation is satisfied.
//
//detvet:acquires c.mu
func panicUnwind(c *counter, abort bool) {
	c.mu.Lock()
	if abort {
		c.mu.Unlock()
		panic("abort")
	}
}

func panicLeaves(c *counter) {
	c.mu.Lock()
	c.n++
	panic("crash") // locks held at an explicit panic are not reported
}
