package policy

// The sorted-slice MemSafety and Temporal as they stood before both moved
// onto spanIndex, kept verbatim (types renamed ref*) as the reference the
// differential test and FuzzAllocPolicies compare the live policies against.
// Do not improve this file: its value is that it is the old code.

import (
	"fmt"
	"sort"

	"herqules/internal/ipc"
)

// refMemSafety is the memory-safety execution policy sketched in §4.2: the
// verifier tracks every live allocation as an refInterval and checks that
// accesses land inside one (spatial safety) and that the allocation is still
// live (temporal safety). Unlike CFI, this eliminates the corruption rather
// than catching its use.
type refMemSafety struct {
	Hooks
	// allocs is sorted by base address; refIntervals never overlap.
	allocs     []refInterval
	maxEntries int
}

type refInterval struct{ base, size uint64 }

// newRefMemSafety creates an empty allocation-tracking context.
func newRefMemSafety() *refMemSafety {
	return &refMemSafety{}
}

// Name implements Policy.
func (p *refMemSafety) Name() string { return "memsafety" }

// Entries implements Policy.
func (p *refMemSafety) Entries() int { return len(p.allocs) }

// MaxEntries reports the high-water mark of tracked allocations.
func (p *refMemSafety) MaxEntries() int { return p.maxEntries }

// Clone implements Policy.
func (p *refMemSafety) Clone() Policy {
	n := newRefMemSafety()
	n.allocs = append([]refInterval(nil), p.allocs...)
	n.maxEntries = p.maxEntries
	return n
}

// Handle implements Policy.
func (p *refMemSafety) Handle(m ipc.Message) *Violation {
	switch m.Op {
	case ipc.OpAllocCreate:
		return p.create(m, m.Arg1, m.Arg2)
	case ipc.OpAllocCheck:
		if _, ok := p.find(m.Arg1); !ok {
			return &Violation{PID: m.PID, Op: m.Op, Addr: m.Arg1,
				Reason: "access outside any live allocation: out-of-bounds or use-after-free"}
		}
	case ipc.OpAllocCheckBase:
		i1, ok1 := p.find(m.Arg1)
		i2, ok2 := p.find(m.Arg2)
		if !ok1 || !ok2 || i1 != i2 {
			return &Violation{PID: m.PID, Op: m.Op, Addr: m.Arg1, Value: m.Arg2,
				Reason: "addresses not within one live allocation"}
		}
	case ipc.OpAllocExtend:
		// realloc: destroy the old refInterval, create the new one.
		if v := p.destroy(m, m.Arg1); v != nil {
			return v
		}
		return p.create(m, m.Arg2, m.Arg3)
	case ipc.OpAllocDestroy:
		return p.destroy(m, m.Arg1)
	case ipc.OpAllocDestroyAll:
		return p.destroyAll(m, m.Arg1, m.Arg2)
	}
	return nil
}

func (p *refMemSafety) create(m ipc.Message, base, size uint64) *Violation {
	if size == 0 {
		size = 1
	}
	i := sort.Search(len(p.allocs), func(i int) bool { return p.allocs[i].base+p.allocs[i].size > base })
	if i < len(p.allocs) && p.allocs[i].base < base+size {
		return &Violation{PID: m.PID, Op: m.Op, Addr: base, Value: size,
			Reason: "allocation overlaps an existing allocation"}
	}
	p.allocs = append(p.allocs, refInterval{})
	copy(p.allocs[i+1:], p.allocs[i:])
	p.allocs[i] = refInterval{base: base, size: size}
	if len(p.allocs) > p.maxEntries {
		p.maxEntries = len(p.allocs)
	}
	return nil
}

// find returns the index of the live allocation containing addr.
func (p *refMemSafety) find(addr uint64) (int, bool) {
	i := sort.Search(len(p.allocs), func(i int) bool { return p.allocs[i].base+p.allocs[i].size > addr })
	if i < len(p.allocs) && p.allocs[i].base <= addr {
		return i, true
	}
	return 0, false
}

func (p *refMemSafety) destroy(m ipc.Message, base uint64) *Violation {
	i, ok := p.find(base)
	if !ok || p.allocs[i].base != base {
		return &Violation{PID: m.PID, Op: m.Op, Addr: base,
			Reason: "destroy of non-allocation: invalid or double free"}
	}
	p.allocs = append(p.allocs[:i], p.allocs[i+1:]...)
	return nil
}

func (p *refMemSafety) destroyAll(m ipc.Message, base, size uint64) *Violation {
	kept := p.allocs[:0]
	removed := 0
	for _, iv := range p.allocs {
		if iv.base >= base && iv.base < base+size {
			removed++
			continue
		}
		kept = append(kept, iv)
	}
	p.allocs = kept
	if removed == 0 {
		return &Violation{PID: m.PID, Op: m.Op, Addr: base, Value: size,
			Reason: "destroy-all found no allocations: invalid or double free"}
	}
	return nil
}

// refTemporal is the temporal half of the §4.2 memory-safety sketch: instead of
// only tracking which intervals are live (MemSafety), it remembers *freed*
// allocations as dead generations. An access landing in a dead region is a
// use-after-free; a destroy of a dead region is a double free — each
// attributed to the allocation generation it hit. The two policies are
// complementary: MemSafety answers "is this address inside something live?",
// refTemporal answers "is this address inside something that used to be live?",
// which is the difference between flagging an out-of-bounds access and
// proving a dangling pointer.
type refTemporal struct {
	Hooks
	// regions is sorted by base and non-overlapping; both live and dead
	// (tombstoned) allocations live here so one binary search answers both
	// questions.
	regions []refRegion
	// gen numbers allocations in creation order; violation reasons cite it.
	gen        uint64
	live       int
	maxEntries int
}

type refRegion struct {
	base, size uint64
	gen        uint64
	dead       bool
}

// newRefTemporal creates an empty temporal-safety context.
func newRefTemporal() *refTemporal {
	return &refTemporal{}
}

// Name implements Policy.
func (t *refTemporal) Name() string { return "temporal" }

// Entries implements Policy, counting live allocations (tombstones are
// bookkeeping, not program state).
func (t *refTemporal) Entries() int { return t.live }

// MaxEntries reports the high-water mark of live allocations.
func (t *refTemporal) MaxEntries() int { return t.maxEntries }

// Clone implements Policy.
func (t *refTemporal) Clone() Policy {
	n := newRefTemporal()
	n.regions = append([]refRegion(nil), t.regions...)
	n.gen = t.gen
	n.live = t.live
	n.maxEntries = t.maxEntries
	return n
}

// Handle implements Policy over the §4.2 allocation message set.
func (t *refTemporal) Handle(m ipc.Message) *Violation {
	switch m.Op {
	case ipc.OpAllocCreate:
		return t.create(m, m.Arg1, m.Arg2)
	case ipc.OpAllocCheck:
		return t.check(m, m.Arg1)
	case ipc.OpAllocCheckBase:
		if v := t.check(m, m.Arg1); v != nil {
			return v
		}
		return t.check(m, m.Arg2)
	case ipc.OpAllocExtend:
		if v := t.destroy(m, m.Arg1); v != nil {
			return v
		}
		return t.create(m, m.Arg2, m.Arg3)
	case ipc.OpAllocDestroy:
		return t.destroy(m, m.Arg1)
	case ipc.OpAllocDestroyAll:
		return t.destroyAll(m, m.Arg1, m.Arg2)
	}
	return nil
}

// find returns the index of the region containing addr, live or dead.
func (t *refTemporal) find(addr uint64) (int, bool) {
	i := sort.Search(len(t.regions), func(i int) bool {
		return t.regions[i].base+t.regions[i].size > addr
	})
	if i < len(t.regions) && t.regions[i].base <= addr {
		return i, true
	}
	return 0, false
}

func (t *refTemporal) create(m ipc.Message, base, size uint64) *Violation {
	if size == 0 {
		size = 1
	}
	// The allocator reusing freed address space is normal: evict any dead
	// regions the new allocation overlaps. Overlapping a *live* region is a
	// runtime-integrity violation (a corrupted allocator or forged message).
	i := sort.Search(len(t.regions), func(i int) bool {
		return t.regions[i].base+t.regions[i].size > base
	})
	for i < len(t.regions) && t.regions[i].base < base+size {
		if !t.regions[i].dead {
			return &Violation{PID: m.PID, Op: m.Op, Addr: base, Value: size,
				Reason: fmt.Sprintf("allocation overlaps live generation #%d", t.regions[i].gen)}
		}
		t.regions = append(t.regions[:i], t.regions[i+1:]...)
	}
	t.gen++
	t.regions = append(t.regions, refRegion{})
	copy(t.regions[i+1:], t.regions[i:])
	t.regions[i] = refRegion{base: base, size: size, gen: t.gen}
	t.live++
	if t.live > t.maxEntries {
		t.maxEntries = t.live
	}
	t.evictTombstones()
	return nil
}

func (t *refTemporal) check(m ipc.Message, addr uint64) *Violation {
	i, ok := t.find(addr)
	if !ok {
		// Purely temporal: an address outside every known generation is the
		// spatial policy's problem (MemSafety), not ours.
		return nil
	}
	if t.regions[i].dead {
		return &Violation{PID: m.PID, Op: m.Op, Addr: addr,
			Reason: fmt.Sprintf("use-after-free: access inside freed generation #%d", t.regions[i].gen)}
	}
	return nil
}

func (t *refTemporal) destroy(m ipc.Message, base uint64) *Violation {
	i, ok := t.find(base)
	if !ok || t.regions[i].base != base {
		return &Violation{PID: m.PID, Op: m.Op, Addr: base,
			Reason: "free of unknown allocation: invalid free"}
	}
	if t.regions[i].dead {
		return &Violation{PID: m.PID, Op: m.Op, Addr: base,
			Reason: fmt.Sprintf("double free: generation #%d already freed", t.regions[i].gen)}
	}
	t.regions[i].dead = true
	t.live--
	t.evictTombstones()
	return nil
}

func (t *refTemporal) destroyAll(m ipc.Message, base, size uint64) *Violation {
	freed := 0
	for i := range t.regions {
		r := &t.regions[i]
		if r.base >= base && r.base < base+size && !r.dead {
			r.dead = true
			freed++
		}
	}
	t.live -= freed
	t.evictTombstones()
	if freed == 0 {
		return &Violation{PID: m.PID, Op: m.Op, Addr: base, Value: size,
			Reason: "destroy-all found no live allocations: invalid or double free"}
	}
	return nil
}

// evictTombstones drops the oldest dead generations past the cap.
func (t *refTemporal) evictTombstones() {
	dead := len(t.regions) - t.live
	if dead <= maxTombstones {
		return
	}
	// Oldest generation first; a single linear sweep keeps the slice sorted
	// by base (we delete in place).
	for dead > maxTombstones {
		oldest, at := ^uint64(0), -1
		for i := range t.regions {
			if t.regions[i].dead && t.regions[i].gen < oldest {
				oldest, at = t.regions[i].gen, i
			}
		}
		t.regions = append(t.regions[:at], t.regions[at+1:]...)
		dead--
	}
}
