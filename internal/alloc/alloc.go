// Package alloc implements the deterministic memory allocator of paper §4.4.
//
// Because RFDet threads have isolated address spaces, the system allocator
// cannot be used: two threads calling malloc concurrently could receive the
// same virtual address, and those addresses would then collide during memory
// modification propagation. The paper solves this with a modified Hoard
// allocator whose metadata lives in the shared metadata space.
//
// This implementation achieves the same two guarantees with a Hoard-like
// design:
//
//  1. Non-overlap: every thread allocates from its own region of the virtual
//     address range (region = HeapBase + tid*RegionSize), so concurrent
//     allocations in different threads can never return conflicting
//     addresses.
//  2. Determinism: the addresses returned to a thread are a pure function of
//     that thread's own allocation/free sequence (per-thread size-class free
//     lists and a per-thread bump pointer). Cross-thread frees are routed to
//     the owning heap by the runtime under its deterministic order.
//
// Virtual address ranges are huge but sparse; only touched pages become
// resident in any Space.
package alloc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rfdet/internal/mem"
)

const (
	// StaticLimit: addresses below this are reserved for program-defined
	// static objects (sync variables, global scalars) and are never
	// returned by the allocator. Address 0 stays unused as a nil-like
	// sentinel.
	StaticLimit = 1 << 20
	// HeapBase is the first heap address.
	HeapBase = 1 << 32
	// RegionSize is the virtual span owned by each thread's heap.
	RegionSize = 1 << 30
	// MaxThreads bounds the number of per-thread heaps.
	MaxThreads = 1 << 10

	// maxClassSize is the largest size served from size-class free lists;
	// larger requests get page-granular spans.
	maxClassSize = 2048
	numClasses   = 8 // 16,32,64,128,256,512,1024,2048
	minClassSize = 16
)

// classFor maps a request size to a size-class index, or -1 for large.
func classFor(size uint64) int {
	if size > maxClassSize {
		return -1
	}
	c := 0
	s := uint64(minClassSize)
	for s < size {
		s <<= 1
		c++
	}
	return c
}

// classSize returns the block size of class c.
func classSize(c int) uint64 { return minClassSize << uint(c) }

// heap is one thread's allocation arena.
type heap struct {
	//detvet:lockorder 52
	mu sync.Mutex // taken for cross-thread frees; uncontended otherwise
	//detvet:notguarded fixed when the heap is registered, immutable thereafter
	base  uint64
	limit uint64               //detvet:notguarded fixed when the heap is registered, immutable thereafter
	bump  uint64               //detvet:guardedby mu
	free  [numClasses][]uint64 //detvet:guardedby mu // LIFO free lists per size class
	large map[uint64][]uint64  //detvet:guardedby mu // size → freed large spans
	sizes map[uint64]uint64    //detvet:guardedby mu // live allocation sizes
}

// Allocator hands out non-conflicting shared-memory addresses to all threads
// of one program execution.
type Allocator struct {
	//detvet:lockorder 50
	mu sync.Mutex
	//detvet:guardedby mu
	heaps     []*heap
	liveBytes atomic.Int64
	highWater atomic.Int64
}

// New returns an empty allocator.
func New() *Allocator {
	return &Allocator{}
}

// Register creates the heap for thread tid. The runtime calls it at thread
// creation, which every deterministic runtime orders deterministically.
func (a *Allocator) Register(tid int) {
	if tid < 0 || tid >= MaxThreads {
		panic(fmt.Sprintf("alloc: thread id %d out of range", tid))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.heaps) <= tid {
		a.heaps = append(a.heaps, nil)
	}
	if a.heaps[tid] == nil {
		base := uint64(HeapBase) + uint64(tid)*RegionSize
		a.heaps[tid] = &heap{
			base:  base,
			limit: base + RegionSize,
			bump:  base,
			large: make(map[uint64][]uint64),
			sizes: make(map[uint64]uint64),
		}
	}
}

func (a *Allocator) heapOf(tid int) *heap {
	a.mu.Lock()
	h := a.heaps[tid]
	a.mu.Unlock()
	if h == nil {
		panic(fmt.Sprintf("alloc: thread %d not registered", tid))
	}
	return h
}

// ownerOf returns the thread whose region contains addr, or -1.
func ownerOf(addr uint64) int {
	if addr < HeapBase {
		return -1
	}
	return int((addr - HeapBase) / RegionSize)
}

// Malloc allocates size bytes on behalf of thread tid and returns the
// address. Addresses are 16-byte aligned; size-zero requests allocate the
// smallest class so that distinct allocations have distinct addresses.
func (a *Allocator) Malloc(tid int, size uint64) uint64 {
	h := a.heapOf(tid)
	h.mu.Lock()
	defer h.mu.Unlock()
	if size == 0 {
		size = 1
	}
	var addr uint64
	var got uint64
	if c := classFor(size); c >= 0 {
		got = classSize(c)
		if n := len(h.free[c]); n > 0 {
			addr = h.free[c][n-1]
			h.free[c] = h.free[c][:n-1]
		} else {
			addr = h.bumpAlloc(got, 16)
		}
	} else {
		got = (size + mem.PageSize - 1) &^ uint64(mem.PageSize-1)
		if spans := h.large[got]; len(spans) > 0 {
			addr = spans[len(spans)-1]
			h.large[got] = spans[:len(spans)-1]
		} else {
			addr = h.bumpAlloc(got, mem.PageSize)
		}
	}
	h.sizes[addr] = got
	live := a.liveBytes.Add(int64(got))
	for {
		hw := a.highWater.Load()
		if live <= hw || a.highWater.CompareAndSwap(hw, live) {
			break
		}
	}
	return addr
}

//detvet:holds mu
func (h *heap) bumpAlloc(size, align uint64) uint64 {
	addr := (h.bump + align - 1) &^ (align - 1)
	if addr+size > h.limit {
		panic(fmt.Sprintf("alloc: heap region exhausted (base %#x)", h.base))
	}
	h.bump = addr + size
	return addr
}

// heapAt returns the registered heap owning addr, or nil. The lookup takes
// a.mu: Register may still be growing the heaps slice (a spawn reallocates
// its backing array) while frees and size queries arrive from
// already-running threads.
func (a *Allocator) heapAt(addr uint64) *heap {
	owner := ownerOf(addr)
	if owner < 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if owner >= len(a.heaps) {
		return nil
	}
	return a.heaps[owner]
}

// Free releases the allocation at addr. Any thread may free any allocation;
// the block returns to the owning thread's heap, as in Hoard. The runtime is
// responsible for ordering cross-thread frees deterministically.
func (a *Allocator) Free(addr uint64) error {
	h := a.heapAt(addr)
	if h == nil {
		return fmt.Errorf("alloc: free of non-heap address %#x", addr)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	size, ok := h.sizes[addr]
	if !ok {
		return fmt.Errorf("alloc: free of unallocated address %#x", addr)
	}
	delete(h.sizes, addr)
	if c := classFor(size); c >= 0 && classSize(c) == size {
		h.free[c] = append(h.free[c], addr)
	} else {
		h.large[size] = append(h.large[size], addr)
	}
	a.liveBytes.Add(-int64(size))
	return nil
}

// HighWater returns the high-water mark of allocated bytes: the
// "SharedMemory" term in the footprint equations of §5.4.
func (a *Allocator) HighWater() uint64 { return uint64(a.highWater.Load()) }
