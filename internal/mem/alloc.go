package mem

import (
	"errors"
	"fmt"
	"sort"
)

// Allocator errors.
var (
	// ErrOOM is returned when the heap segment is exhausted.
	ErrOOM = errors.New("mem: out of heap memory")
	// ErrInvalidFree is returned for a free of an address that is not the
	// base of a live allocation (including double frees).
	ErrInvalidFree = errors.New("mem: invalid or double free")
)

// Allocator is a first-fit free-list heap over a contiguous segment of a
// Memory. It deliberately has the metadata layout of a classic C allocator —
// no poisoning, no quarantine — so that heap overflows corrupt the adjacent
// allocation and freed chunks are immediately reusable. The paper's
// use-after-free findings (§5.2) depend on exactly this behaviour.
type Allocator struct {
	mem        *Memory
	base, size uint64

	free []chunk          // sorted by address, coalesced
	live map[uint64]chunk // base address -> chunk
}

type chunk struct {
	addr, size uint64
}

const allocAlign = 16

// NewAllocator creates an allocator over the heap segment [base, base+size),
// which must already be mapped writable in m.
func NewAllocator(m *Memory, base, size uint64) *Allocator {
	return &Allocator{
		mem:  m,
		base: base,
		size: size,
		free: []chunk{{addr: base, size: size}},
		live: make(map[uint64]chunk),
	}
}

// Malloc allocates size bytes (rounded up to 16-byte alignment) and returns
// the base address. The memory content is whatever the previous occupant
// left behind — as with real malloc, which is what makes use-after-free
// exploitable.
func (a *Allocator) Malloc(size uint64) (uint64, error) {
	if size == 0 {
		size = 1
	}
	size = (size + allocAlign - 1) &^ (allocAlign - 1)
	for i, c := range a.free {
		if c.size < size {
			continue
		}
		addr := c.addr
		if c.size == size {
			a.free = append(a.free[:i], a.free[i+1:]...)
		} else {
			a.free[i] = chunk{addr: c.addr + size, size: c.size - size}
		}
		a.live[addr] = chunk{addr: addr, size: size}
		return addr, nil
	}
	return 0, ErrOOM
}

// Free releases the allocation based at addr.
func (a *Allocator) Free(addr uint64) error {
	c, ok := a.live[addr]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrInvalidFree, addr)
	}
	delete(a.live, addr)
	a.insertFree(c)
	return nil
}

// Realloc resizes the allocation at addr to newSize, moving it when it
// cannot grow in place, and returns the (possibly new) base address.
func (a *Allocator) Realloc(addr, newSize uint64) (uint64, error) {
	c, ok := a.live[addr]
	if !ok {
		return 0, fmt.Errorf("%w: realloc of %#x", ErrInvalidFree, addr)
	}
	newSize = (newSize + allocAlign - 1) &^ (allocAlign - 1)
	if newSize <= c.size {
		return addr, nil // shrink in place (no split, like many allocators)
	}
	nw, err := a.Malloc(newSize)
	if err != nil {
		return 0, err
	}
	if err := a.mem.Memmove(nw, addr, c.size); err != nil {
		return 0, err
	}
	if err := a.Free(addr); err != nil {
		return 0, err
	}
	return nw, nil
}

// SizeOf returns the size of the live allocation at addr.
func (a *Allocator) SizeOf(addr uint64) (uint64, bool) {
	c, ok := a.live[addr]
	return c.size, ok
}

// Contains reports whether addr falls inside any live allocation, returning
// that allocation's base.
func (a *Allocator) Contains(addr uint64) (base uint64, ok bool) {
	// The live map is keyed by base; scan is acceptable for diagnostics.
	for b, c := range a.live {
		if addr >= b && addr < b+c.size {
			return b, true
		}
	}
	return 0, false
}

// insertFree returns c to the free list, coalescing neighbours.
func (a *Allocator) insertFree(c chunk) {
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].addr > c.addr })
	a.free = append(a.free, chunk{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = c
	// Coalesce with successor, then predecessor.
	if i+1 < len(a.free) && a.free[i].addr+a.free[i].size == a.free[i+1].addr {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].addr+a.free[i-1].size == a.free[i].addr {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}
