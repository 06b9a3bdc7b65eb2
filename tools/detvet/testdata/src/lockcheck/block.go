package lockcheck

import "sync"

// Blocking while holding an annotated mutex deadlocks the turn protocol:
// channel ops, selects without default and sync.Cond.Wait/WaitGroup.Wait are
// all flagged.

func sendWhileHeld(c *counter, ch chan int) {
	c.mu.Lock()
	ch <- 1 // want "channel send while holding"
	c.mu.Unlock()
}

func sendClean(c *counter, ch chan int) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	ch <- c.loose
}

func recvWhileHeld(c *counter, ch chan int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return <-ch // want "channel receive while holding"
}

func selectWhileHeld(c *counter, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select { // want "select without default while holding"
	case <-ch:
	}
}

func selectNonblocking(c *counter, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-ch:
	default:
	}
}

func condWaitWhileHeld(c *counter, cond *sync.Cond) {
	c.mu.Lock()
	cond.Wait() // want "while holding"
	c.mu.Unlock()
}
