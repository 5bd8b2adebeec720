package policy

import (
	"testing"
	"testing/quick"

	"herqules/internal/ipc"
)

func msg(op ipc.Op, args ...uint64) ipc.Message {
	m := ipc.Message{Op: op, PID: 1}
	if len(args) > 0 {
		m.Arg1 = args[0]
	}
	if len(args) > 1 {
		m.Arg2 = args[1]
	}
	if len(args) > 2 {
		m.Arg3 = args[2]
	}
	return m
}

func TestCFIDefineCheckRoundTrip(t *testing.T) {
	c := NewCFI()
	if v := c.Handle(msg(ipc.OpPointerDefine, 0x1000, 0x4000)); v != nil {
		t.Fatalf("define: %v", v)
	}
	if v := c.Handle(msg(ipc.OpPointerCheck, 0x1000, 0x4000)); v != nil {
		t.Errorf("check of correct value failed: %v", v)
	}
	if v := c.Handle(msg(ipc.OpPointerCheck, 0x1000, 0xbad)); v == nil {
		t.Error("check of corrupted value passed")
	}
}

func TestCFIUseAfterFreeDetection(t *testing.T) {
	c := NewCFI()
	c.Handle(msg(ipc.OpPointerDefine, 0x1000, 0x4000))
	c.Handle(msg(ipc.OpPointerInvalidate, 0x1000))
	v := c.Handle(msg(ipc.OpPointerCheck, 0x1000, 0x4000))
	if v == nil {
		t.Fatal("check after invalidate passed: use-after-free undetected")
	}
}

func TestCFICheckInvalidate(t *testing.T) {
	c := NewCFI()
	c.Handle(msg(ipc.OpPointerDefine, 0x2000, 0x5000))
	if v := c.Handle(msg(ipc.OpPointerCheckInvalidate, 0x2000, 0x5000)); v != nil {
		t.Fatalf("check-invalidate: %v", v)
	}
	// Second check must fail: the entry was consumed (backward-edge
	// semantics — each return address is checked exactly once).
	if v := c.Handle(msg(ipc.OpPointerCheck, 0x2000, 0x5000)); v == nil {
		t.Error("entry survived check-invalidate")
	}
	// Failed check-invalidate must not consume.
	c.Handle(msg(ipc.OpPointerDefine, 0x3000, 0x6000))
	if v := c.Handle(msg(ipc.OpPointerCheckInvalidate, 0x3000, 0xbad)); v == nil {
		t.Fatal("mismatched check-invalidate passed")
	}
	if v := c.Handle(msg(ipc.OpPointerCheck, 0x3000, 0x6000)); v != nil {
		t.Error("failed check-invalidate consumed the entry")
	}
}

func TestCFIBlockCopyMemcpySemantics(t *testing.T) {
	c := NewCFI()
	c.Handle(msg(ipc.OpPointerDefine, 0x1000, 0xa))
	c.Handle(msg(ipc.OpPointerDefine, 0x1008, 0xb))
	c.Handle(msg(ipc.OpPointerDefine, 0x2008, 0xdead)) // pre-existing at dst
	// Copy [0x1000, 0x1010) -> [0x2000, 0x2010).
	c.Handle(msg(ipc.OpPointerBlockCopy, 0x1000, 0x2000, 0x10))
	if v := c.Handle(msg(ipc.OpPointerCheck, 0x2000, 0xa)); v != nil {
		t.Errorf("copied pointer missing: %v", v)
	}
	if v := c.Handle(msg(ipc.OpPointerCheck, 0x2008, 0xb)); v != nil {
		t.Errorf("copied pointer at offset missing (pre-existing not replaced): %v", v)
	}
	// Source entries survive a copy.
	if v := c.Handle(msg(ipc.OpPointerCheck, 0x1000, 0xa)); v != nil {
		t.Errorf("source pointer lost on copy: %v", v)
	}
}

func TestCFIBlockCopyOverlapping(t *testing.T) {
	c := NewCFI()
	c.Handle(msg(ipc.OpPointerDefine, 0x1000, 0xa))
	c.Handle(msg(ipc.OpPointerDefine, 0x1008, 0xb))
	// Overlapping forward copy [0x1000,0x1010) -> [0x1008,0x1018).
	c.Handle(msg(ipc.OpPointerBlockCopy, 0x1000, 0x1008, 0x10))
	if v := c.Handle(msg(ipc.OpPointerCheck, 0x1008, 0xa)); v != nil {
		t.Errorf("overlap copy wrong at 0x1008: %v", v)
	}
	if v := c.Handle(msg(ipc.OpPointerCheck, 0x1010, 0xb)); v != nil {
		t.Errorf("overlap copy wrong at 0x1010: %v", v)
	}
}

func TestCFIBlockMoveReallocSemantics(t *testing.T) {
	c := NewCFI()
	c.Handle(msg(ipc.OpPointerDefine, 0x1000, 0xa))
	c.Handle(msg(ipc.OpPointerBlockMove, 0x1000, 0x9000, 0x10))
	if v := c.Handle(msg(ipc.OpPointerCheck, 0x9000, 0xa)); v != nil {
		t.Errorf("moved pointer missing: %v", v)
	}
	// Source must be gone after a move.
	if v := c.Handle(msg(ipc.OpPointerCheck, 0x1000, 0xa)); v == nil {
		t.Error("source pointer survived move")
	}
}

func TestCFIBlockInvalidateFreeSemantics(t *testing.T) {
	c := NewCFI()
	c.Handle(msg(ipc.OpPointerDefine, 0x1000, 0xa))
	c.Handle(msg(ipc.OpPointerDefine, 0x1100, 0xb))
	c.Handle(msg(ipc.OpPointerDefine, 0x2000, 0xc)) // outside range
	c.Handle(msg(ipc.OpPointerBlockInvalidate, 0x1000, 0x200))
	if c.Handle(msg(ipc.OpPointerCheck, 0x1000, 0xa)) == nil {
		t.Error("pointer in freed block survived")
	}
	if c.Handle(msg(ipc.OpPointerCheck, 0x1100, 0xb)) == nil {
		t.Error("pointer in freed block survived")
	}
	if v := c.Handle(msg(ipc.OpPointerCheck, 0x2000, 0xc)); v != nil {
		t.Errorf("pointer outside freed block lost: %v", v)
	}
}

func TestCFIEntriesAndClone(t *testing.T) {
	c := NewCFI()
	for i := uint64(0); i < 10; i++ {
		c.Handle(msg(ipc.OpPointerDefine, 0x1000+8*i, i))
	}
	if c.Entries() != 10 || c.MaxEntries() != 10 {
		t.Errorf("Entries=%d Max=%d, want 10/10", c.Entries(), c.MaxEntries())
	}
	cl := c.Clone().(*CFI)
	cl.Handle(msg(ipc.OpPointerInvalidate, 0x1000))
	if c.Entries() != 10 {
		t.Error("clone shares state with parent")
	}
	if cl.Entries() != 9 {
		t.Error("clone did not apply invalidate")
	}
}

func TestCFIPropertyDefineThenCheckAlwaysPasses(t *testing.T) {
	f := func(addrs []uint64, vals []uint64) bool {
		c := NewCFI()
		n := len(addrs)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			c.Handle(msg(ipc.OpPointerDefine, addrs[i], vals[i]))
		}
		// Re-checking the *latest* definition for each address must pass.
		latest := make(map[uint64]uint64)
		for i := 0; i < n; i++ {
			latest[addrs[i]] = vals[i]
		}
		for a, v := range latest {
			if c.Handle(msg(ipc.OpPointerCheck, a, v)) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemSafetyCreateCheckDestroy(t *testing.T) {
	p := NewMemSafety()
	if v := p.Handle(msg(ipc.OpAllocCreate, 0x1000, 0x100)); v != nil {
		t.Fatalf("create: %v", v)
	}
	if v := p.Handle(msg(ipc.OpAllocCheck, 0x1080)); v != nil {
		t.Errorf("in-bounds check failed: %v", v)
	}
	if v := p.Handle(msg(ipc.OpAllocCheck, 0x1100)); v == nil {
		t.Error("one-past-end access passed")
	}
	if v := p.Handle(msg(ipc.OpAllocDestroy, 0x1000)); v != nil {
		t.Fatalf("destroy: %v", v)
	}
	if v := p.Handle(msg(ipc.OpAllocCheck, 0x1080)); v == nil {
		t.Error("use-after-free access passed")
	}
	if v := p.Handle(msg(ipc.OpAllocDestroy, 0x1000)); v == nil {
		t.Error("double free passed")
	}
}

func TestMemSafetyOverlapRejected(t *testing.T) {
	p := NewMemSafety()
	p.Handle(msg(ipc.OpAllocCreate, 0x1000, 0x100))
	if v := p.Handle(msg(ipc.OpAllocCreate, 0x1080, 0x100)); v == nil {
		t.Error("overlapping create passed")
	}
	if v := p.Handle(msg(ipc.OpAllocCreate, 0x0f80, 0x100)); v == nil {
		t.Error("overlapping create (from below) passed")
	}
	if v := p.Handle(msg(ipc.OpAllocCreate, 0x1100, 0x100)); v != nil {
		t.Errorf("adjacent create rejected: %v", v)
	}
}

func TestMemSafetyCheckBase(t *testing.T) {
	p := NewMemSafety()
	p.Handle(msg(ipc.OpAllocCreate, 0x1000, 0x100))
	p.Handle(msg(ipc.OpAllocCreate, 0x2000, 0x100))
	if v := p.Handle(msg(ipc.OpAllocCheckBase, 0x1000, 0x10ff)); v != nil {
		t.Errorf("same-allocation check failed: %v", v)
	}
	if v := p.Handle(msg(ipc.OpAllocCheckBase, 0x1000, 0x2000)); v == nil {
		t.Error("cross-allocation check passed")
	}
}

func TestMemSafetyExtendRealloc(t *testing.T) {
	p := NewMemSafety()
	p.Handle(msg(ipc.OpAllocCreate, 0x1000, 0x100))
	if v := p.Handle(msg(ipc.OpAllocExtend, 0x1000, 0x5000, 0x200)); v != nil {
		t.Fatalf("extend: %v", v)
	}
	if v := p.Handle(msg(ipc.OpAllocCheck, 0x5100)); v != nil {
		t.Errorf("new range not live: %v", v)
	}
	if v := p.Handle(msg(ipc.OpAllocCheck, 0x1000)); v == nil {
		t.Error("old range still live after extend")
	}
}

func TestMemSafetyDestroyAll(t *testing.T) {
	p := NewMemSafety()
	p.Handle(msg(ipc.OpAllocCreate, 0x1000, 0x10)) // stack slots
	p.Handle(msg(ipc.OpAllocCreate, 0x1020, 0x10))
	p.Handle(msg(ipc.OpAllocCreate, 0x9000, 0x10)) // unrelated
	if v := p.Handle(msg(ipc.OpAllocDestroyAll, 0x1000, 0x100)); v != nil {
		t.Fatalf("destroy-all: %v", v)
	}
	if p.Handle(msg(ipc.OpAllocCheck, 0x1005)) == nil {
		t.Error("frame slot survived destroy-all")
	}
	if v := p.Handle(msg(ipc.OpAllocCheck, 0x9005)); v != nil {
		t.Errorf("unrelated allocation destroyed: %v", v)
	}
	if v := p.Handle(msg(ipc.OpAllocDestroyAll, 0x1000, 0x100)); v == nil {
		t.Error("empty destroy-all passed (double stack deallocation)")
	}
}

func TestMemSafetyIntervalInvariant(t *testing.T) {
	// Property: no sequence of creates/destroys leaves overlapping
	// intervals, and find() is consistent with the interval set.
	f := func(ops []uint16) bool {
		p := NewMemSafety()
		var bases []uint64
		for _, op := range ops {
			base := uint64(op%64) * 0x80
			if op%3 == 0 && len(bases) > 0 {
				p.Handle(msg(ipc.OpAllocDestroy, bases[0]))
				bases = bases[1:]
			} else {
				if v := p.Handle(msg(ipc.OpAllocCreate, base, 0x40)); v == nil {
					bases = append(bases, base)
				}
			}
		}
		// Sorted, disjoint, no empty leaf, count consistent; and as many
		// spans as creates that were not destroyed again.
		return len(checkSpanIndex(t, &p.allocs)) == len(bases) && p.Entries() == len(bases)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCounterPolicy(t *testing.T) {
	c := NewCounter()
	for i := 0; i < 5; i++ {
		if v := c.Handle(msg(ipc.OpCounterInc, 7)); v != nil {
			t.Fatalf("inc: %v", v)
		}
	}
	if c.Count(7) != 5 {
		t.Errorf("Count = %d, want 5", c.Count(7))
	}
	if c.Count(8) != 0 {
		t.Errorf("untouched class = %d, want 0", c.Count(8))
	}
	cl := c.Clone().(*Counter)
	cl.Handle(msg(ipc.OpCounterInc, 7))
	if c.Count(7) != 5 || cl.Count(7) != 6 {
		t.Error("clone shares counters")
	}
}

func TestCounterWatchdogLimit(t *testing.T) {
	c := NewCounter()
	c.Limit = 2
	c.Handle(msg(ipc.OpCounterInc, 1))
	c.Handle(msg(ipc.OpCounterInc, 1))
	if v := c.Handle(msg(ipc.OpCounterInc, 1)); v == nil {
		t.Error("limit exceeded without violation")
	}
}

func TestPoliciesIgnoreForeignOps(t *testing.T) {
	// Policies sharing one message stream must skip ops they don't own.
	cfi := NewCFI()
	ms := NewMemSafety()
	cnt := NewCounter()
	all := []ipc.Op{
		ipc.OpInit, ipc.OpSyscall, ipc.OpPointerDefine, ipc.OpAllocCreate,
		ipc.OpCounterInc, ipc.OpNop,
	}
	for _, op := range all {
		m := msg(op, 0x1000, 0x10)
		for _, p := range []Policy{cfi, ms, cnt} {
			if v := p.Handle(m); v != nil {
				t.Errorf("%s violated on %s: %v", p.Name(), op, v)
			}
		}
	}
}
