package policy

import (
	"fmt"

	"herqules/internal/ipc"
)

// maxTombstones bounds the dead-region history Temporal keeps for
// use-after-free attribution. Past the cap the oldest generations are
// evicted; a UAF against an evicted region then reports as an access outside
// any known allocation rather than by generation, but memory stays bounded
// for arbitrarily long-running processes.
const maxTombstones = 4096

// Temporal is the temporal half of the §4.2 memory-safety sketch: instead of
// only tracking which intervals are live (MemSafety), it remembers *freed*
// allocations as dead generations. An access landing in a dead region is a
// use-after-free; a destroy of a dead region is a double free — each
// attributed to the allocation generation it hit. The two policies are
// complementary: MemSafety answers "is this address inside something live?",
// Temporal answers "is this address inside something that used to be live?",
// which is the difference between flagging an out-of-bounds access and
// proving a dangling pointer.
type Temporal struct {
	Hooks
	// regions holds live and dead (tombstoned) allocations together, so one
	// search answers both questions. A span's tag is gen<<1 | dead.
	regions spanIndex
	// graves orders the tombstones for eviction: a min-heap by generation of
	// every span that was marked dead. Entries are invalidated lazily — one is
	// stale once its generation has left tombs (create reclaimed the address)
	// — and swept out when stale entries outnumber tombstones.
	graves []grave
	// tombs maps the generation of every tombstone in regions to its base, so
	// telling a stale grave from a live one is one lookup, not a search.
	tombs *ptrTable
	// gen numbers allocations in creation order; violation reasons cite it.
	gen        uint64
	maxEntries int
}

type grave struct{ gen, base uint64 }

const tagDead = 1

// graveSlack is how many stale heap entries beyond one per tombstone bury
// tolerates before it sweeps them out.
const graveSlack = 64

// NewTemporal creates an empty temporal-safety context.
func NewTemporal() *Temporal {
	return &Temporal{tombs: newPtrTable()}
}

// Name implements Policy.
func (t *Temporal) Name() string { return "temporal" }

// Entries implements Policy, counting live allocations (tombstones are
// bookkeeping, not program state).
func (t *Temporal) Entries() int { return t.regions.n - t.tombs.live }

// MaxEntries reports the high-water mark of live allocations.
func (t *Temporal) MaxEntries() int { return t.maxEntries }

// Clone implements Policy.
func (t *Temporal) Clone() Policy {
	n := *t
	n.regions = t.regions.clone()
	n.graves = append([]grave(nil), t.graves...)
	n.tombs = newPtrTable()
	t.tombs.each(n.tombs.put)
	return &n
}

// Ops implements Policy.
func (t *Temporal) Ops() []ipc.Op { return allocOps }

// Handle implements Policy.
func (t *Temporal) Handle(m ipc.Message) *Violation { return t.handle(&m) }

// HandleRun implements Policy.
func (t *Temporal) HandleRun(ms []ipc.Message) (int, *Violation) {
	for i := range ms {
		if v := t.handle(&ms[i]); v != nil {
			return i, v
		}
	}
	return len(ms), nil
}

// handle evaluates the §4.2 allocation message set.
func (t *Temporal) handle(m *ipc.Message) *Violation {
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
		// A new interval that wraps is refused before the old one is freed.
		if v := wrapViolation(m, m.Arg2, m.Arg3); v != nil {
			return v
		}
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

func (t *Temporal) create(m *ipc.Message, base, size uint64) *Violation {
	if v := wrapViolation(m, base, size); v != nil {
		return v
	}
	if size == 0 {
		size = 1
	}
	// The allocator reusing freed address space is normal: evict any dead
	// regions the new allocation overlaps. Overlapping a *live* region is a
	// runtime-integrity violation (a corrupted allocator or forged message).
	at := t.regions.seek(base)
	for s := t.regions.at(at); s != nil && s.base < base+size; s = t.regions.at(at) {
		if s.tag&tagDead == 0 {
			return &Violation{PID: m.PID, Op: m.Op, Addr: base, Value: size,
				Reason: fmt.Sprintf("allocation overlaps live generation #%d", s.tag>>1)}
		}
		t.tombs.del(s.tag >> 1)
		at = t.regions.remove(at)
	}
	t.gen++
	t.regions.insert(at, span{base: base, size: size, tag: t.gen << 1})
	t.maxEntries = max(t.maxEntries, t.Entries())
	return nil
}

func (t *Temporal) check(m *ipc.Message, addr uint64) *Violation {
	s, _ := t.regions.find(addr)
	if s == nil {
		// Purely temporal: an address outside every known generation is the
		// spatial policy's problem (MemSafety), not ours.
		return nil
	}
	if s.tag&tagDead != 0 {
		return &Violation{PID: m.PID, Op: m.Op, Addr: addr,
			Reason: fmt.Sprintf("use-after-free: access inside freed generation #%d", s.tag>>1)}
	}
	return nil
}

func (t *Temporal) destroy(m *ipc.Message, base uint64) *Violation {
	s, _ := t.regions.find(base)
	if s == nil || s.base != base {
		return &Violation{PID: m.PID, Op: m.Op, Addr: base,
			Reason: "free of unknown allocation: invalid free"}
	}
	if s.tag&tagDead != 0 {
		return &Violation{PID: m.PID, Op: m.Op, Addr: base,
			Reason: fmt.Sprintf("double free: generation #%d already freed", s.tag>>1)}
	}
	t.bury(s)
	t.evictTombstones()
	return nil
}

// destroyAll buries every live allocation whose base lies in
// [base, base+size), walking from base as MemSafety's does.
func (t *Temporal) destroyAll(m *ipc.Message, base, size uint64) *Violation {
	end, freed := base+size, 0
	at := t.regions.from(base)
	for s := t.regions.at(at); s != nil && s.base < end; s = t.regions.at(at) {
		if s.tag&tagDead == 0 {
			t.bury(s)
			freed++
		}
		at = t.regions.next(at)
	}
	t.evictTombstones()
	if freed == 0 {
		return &Violation{PID: m.PID, Op: m.Op, Addr: base, Value: size,
			Reason: "destroy-all found no live allocations: invalid or double free"}
	}
	return nil
}

// bury turns live span s into a tombstone and queues it for eviction.
func (t *Temporal) bury(s *span) {
	s.tag |= tagDead
	t.tombs.put(s.tag>>1, s.base)
	if len(t.graves) >= 2*t.tombs.live+graveSlack {
		// Mostly stale (the allocator keeps reusing freed addresses before
		// the cap is reached): keep only entries that still name a tombstone,
		// so the heap stays within a constant factor of them.
		kept := t.graves[:0]
		for _, g := range t.graves {
			if _, buried := t.tombs.get(g.gen); buried {
				kept = append(kept, g)
			}
		}
		t.graves = kept
		for i := len(kept)/2 - 1; i >= 0; i-- {
			t.sinkGrave(i)
		}
	}
	g := append(t.graves, grave{gen: s.tag >> 1, base: s.base})
	for i := len(g) - 1; i > 0; {
		up := (i - 1) / 2
		if g[up].gen <= g[i].gen {
			break
		}
		g[up], g[i] = g[i], g[up]
		i = up
	}
	t.graves = g
}

// sinkGrave restores heap order below i.
func (t *Temporal) sinkGrave(i int) {
	g := t.graves
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(g); c++ {
			if g[c].gen < g[least].gen {
				least = c
			}
		}
		if least == i {
			return
		}
		g[i], g[least] = g[least], g[i]
		i = least
	}
}

// evictTombstones drops dead generations past the cap, smallest generation
// first.
func (t *Temporal) evictTombstones() {
	for t.tombs.live > maxTombstones {
		g := t.graves[0]
		last := len(t.graves) - 1
		t.graves[0] = t.graves[last]
		t.graves = t.graves[:last]
		t.sinkGrave(0)
		if t.tombs.del(g.gen) {
			_, at := t.regions.find(g.base)
			t.regions.remove(at)
		}
	}
}

var _ Policy = (*Temporal)(nil)
