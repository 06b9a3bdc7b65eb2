package alloc

// SizeOf returns the rounded size of the live allocation at addr, or 0.
func (a *Allocator) SizeOf(addr uint64) uint64 {
	h := a.heapAt(addr)
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sizes[addr]
}

// LiveBytes returns the currently allocated bytes.
func (a *Allocator) LiveBytes() uint64 { return uint64(a.liveBytes.Load()) }
