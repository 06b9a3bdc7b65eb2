package lockcheck

import (
	"sort"
	"sync"
)

// Function-effect annotations cross call boundaries: holds is a call-site
// precondition, and acquires/releases transfer the lock in and out of helper
// functions.

type bucket struct {
	mu    sync.Mutex
	items []int //detvet:guardedby mu
}

// fillLocked appends under the caller's lock.
//
//detvet:holds b.mu
func fillLocked(b *bucket, v int) {
	b.items = append(b.items, v)
}

// lockBucket hands the locked bucket back to the caller.
//
//detvet:acquires b.mu
func lockBucket(b *bucket) {
	b.mu.Lock()
}

// unlockBucket releases a bucket locked by lockBucket.
//
//detvet:releases b.mu
func unlockBucket(b *bucket) {
	b.mu.Unlock()
}

func callsHelperLocked(b *bucket) {
	b.mu.Lock()
	fillLocked(b, 1)
	b.mu.Unlock()
}

func callsHelperUnlocked(b *bucket) {
	fillLocked(b, 2) // want "requires bucket.mu held"
}

func usesAcquireRelease(b *bucket) {
	lockBucket(b)
	b.items = nil
	unlockBucket(b)
}

func forgetsRelease(b *bucket) {
	lockBucket(b) // want "may still be held when forgetsRelease returns"
	b.items = nil
}

// closureReturn returns from a closure with the lock held; that is not an
// exit of the function.
func closureReturn(b *bucket) {
	lockBucket(b)
	sort.Slice(b.items, func(i, j int) bool { return b.items[i] < b.items[j] })
	unlockBucket(b)
}

// aliasLock binds the lock through a local alias. Aliases are not resolved:
// m is a lock of its own, so the access it should cover reads as unheld.
func aliasLock(b *bucket) {
	m := &b.mu
	m.Lock()
	b.items = nil // want "write of b.items without holding mu"
	m.Unlock()
}
