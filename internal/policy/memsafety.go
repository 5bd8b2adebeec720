package policy

import "herqules/internal/ipc"

// MemSafety is the memory-safety execution policy sketched in §4.2: the
// verifier tracks every live allocation as an interval and checks that
// accesses land inside one (spatial safety) and that the allocation is still
// live (temporal safety). Unlike CFI, this eliminates the corruption rather
// than catching its use.
type MemSafety struct {
	Hooks
	// allocs holds the live allocations; tags are unused.
	allocs     spanIndex
	maxEntries int
}

// NewMemSafety creates an empty allocation-tracking context.
func NewMemSafety() *MemSafety {
	return &MemSafety{}
}

// Name implements Policy.
func (p *MemSafety) Name() string { return "memsafety" }

// Entries implements Policy.
func (p *MemSafety) Entries() int { return p.allocs.n }

// MaxEntries reports the high-water mark of tracked allocations.
func (p *MemSafety) MaxEntries() int { return p.maxEntries }

// Clone implements Policy.
func (p *MemSafety) Clone() Policy {
	return &MemSafety{allocs: p.allocs.clone(), maxEntries: p.maxEntries}
}

// allocOps is the §4.2 allocation message set; Temporal consumes it too.
var allocOps = []ipc.Op{ipc.OpAllocCreate, ipc.OpAllocCheck, ipc.OpAllocCheckBase,
	ipc.OpAllocExtend, ipc.OpAllocDestroy, ipc.OpAllocDestroyAll}

// Ops implements Policy.
func (p *MemSafety) Ops() []ipc.Op { return allocOps }

// Handle implements Policy.
func (p *MemSafety) Handle(m ipc.Message) *Violation {
	switch m.Op {
	case ipc.OpAllocCreate:
		return p.create(m, m.Arg1, m.Arg2)
	case ipc.OpAllocCheck:
		if s, _ := p.allocs.find(m.Arg1); s == nil {
			return &Violation{PID: m.PID, Op: m.Op, Addr: m.Arg1,
				Reason: "access outside any live allocation: out-of-bounds or use-after-free"}
		}
	case ipc.OpAllocCheckBase:
		s1, _ := p.allocs.find(m.Arg1)
		s2, _ := p.allocs.find(m.Arg2)
		if s1 == nil || s1 != s2 {
			return &Violation{PID: m.PID, Op: m.Op, Addr: m.Arg1, Value: m.Arg2,
				Reason: "addresses not within one live allocation"}
		}
	case ipc.OpAllocExtend:
		// realloc: destroy the old interval, create the new one. A new
		// interval that wraps is refused before the old one is touched.
		if v := wrapViolation(m, m.Arg2, m.Arg3); v != nil {
			return v
		}
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

func (p *MemSafety) create(m ipc.Message, base, size uint64) *Violation {
	if v := wrapViolation(m, base, size); v != nil {
		return v
	}
	if size == 0 {
		size = 1
	}
	at := p.allocs.seek(base)
	if s := p.allocs.at(at); s != nil && s.base < base+size {
		return &Violation{PID: m.PID, Op: m.Op, Addr: base, Value: size,
			Reason: "allocation overlaps an existing allocation"}
	}
	p.allocs.insert(at, span{base: base, size: size})
	if p.allocs.n > p.maxEntries {
		p.maxEntries = p.allocs.n
	}
	return nil
}

func (p *MemSafety) destroy(m ipc.Message, base uint64) *Violation {
	s, at := p.allocs.find(base)
	if s == nil || s.base != base {
		return &Violation{PID: m.PID, Op: m.Op, Addr: base,
			Reason: "destroy of non-allocation: invalid or double free"}
	}
	p.allocs.remove(at)
	return nil
}

func (p *MemSafety) destroyAll(m ipc.Message, base, size uint64) *Violation {
	removed := p.allocs.removeIf(func(s *span) bool { return s.base >= base && s.base < base+size })
	if removed == 0 {
		return &Violation{PID: m.PID, Op: m.Op, Addr: base, Value: size,
			Reason: "destroy-all found no allocations: invalid or double free"}
	}
	return nil
}

var _ Policy = (*MemSafety)(nil)
