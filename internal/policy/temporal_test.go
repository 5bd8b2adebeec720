package policy

import (
	"strings"
	"testing"

	"herqules/internal/ipc"
)

func TestTemporalUseAfterFree(t *testing.T) {
	p := NewTemporal()
	if v := p.Handle(msg(ipc.OpAllocCreate, 0x1000, 64)); v != nil {
		t.Fatalf("create: %v", v)
	}
	if v := p.Handle(msg(ipc.OpAllocCheck, 0x1010)); v != nil {
		t.Fatalf("check of live allocation: %v", v)
	}
	if v := p.Handle(msg(ipc.OpAllocDestroy, 0x1000)); v != nil {
		t.Fatalf("destroy: %v", v)
	}
	v := p.Handle(msg(ipc.OpAllocCheck, 0x1010))
	if v == nil {
		t.Fatal("access inside freed region passed: use-after-free undetected")
	}
	if !strings.Contains(v.Reason, "use-after-free") {
		t.Errorf("reason %q does not name use-after-free", v.Reason)
	}
}

func TestTemporalDoubleFree(t *testing.T) {
	p := NewTemporal()
	p.Handle(msg(ipc.OpAllocCreate, 0x1000, 64))
	p.Handle(msg(ipc.OpAllocDestroy, 0x1000))
	v := p.Handle(msg(ipc.OpAllocDestroy, 0x1000))
	if v == nil {
		t.Fatal("second free of same region passed")
	}
	if !strings.Contains(v.Reason, "double free") {
		t.Errorf("reason %q does not name double free", v.Reason)
	}
}

func TestTemporalInvalidFree(t *testing.T) {
	p := NewTemporal()
	if v := p.Handle(msg(ipc.OpAllocDestroy, 0xdead)); v == nil {
		t.Error("free of never-allocated address passed")
	}
	// Freeing an interior pointer is also invalid: destroy requires the base.
	p.Handle(msg(ipc.OpAllocCreate, 0x1000, 64))
	if v := p.Handle(msg(ipc.OpAllocDestroy, 0x1010)); v == nil {
		t.Error("free of interior pointer passed")
	}
}

func TestTemporalAddressReuseIsClean(t *testing.T) {
	// The allocator handing out freed address space again is normal; the new
	// generation supersedes the tombstone and accesses are clean again.
	p := NewTemporal()
	p.Handle(msg(ipc.OpAllocCreate, 0x1000, 64))
	p.Handle(msg(ipc.OpAllocDestroy, 0x1000))
	if v := p.Handle(msg(ipc.OpAllocCreate, 0x1000, 64)); v != nil {
		t.Fatalf("reuse of freed space rejected: %v", v)
	}
	if v := p.Handle(msg(ipc.OpAllocCheck, 0x1010)); v != nil {
		t.Errorf("access to recycled allocation flagged: %v", v)
	}
	if got := p.Entries(); got != 1 {
		t.Errorf("Entries = %d after reuse, want 1", got)
	}
}

func TestTemporalOverlapLiveIsViolation(t *testing.T) {
	p := NewTemporal()
	p.Handle(msg(ipc.OpAllocCreate, 0x1000, 64))
	if v := p.Handle(msg(ipc.OpAllocCreate, 0x1020, 64)); v == nil {
		t.Error("allocation overlapping a live region passed")
	}
}

func TestTemporalUnknownAddressIsNotOurs(t *testing.T) {
	// Purely temporal: an address outside every known generation is the
	// spatial policy's problem, not a UAF.
	p := NewTemporal()
	p.Handle(msg(ipc.OpAllocCreate, 0x1000, 64))
	if v := p.Handle(msg(ipc.OpAllocCheck, 0x9000)); v != nil {
		t.Errorf("address outside all generations flagged: %v", v)
	}
}

func TestTemporalExtendMovesGeneration(t *testing.T) {
	// Extend (realloc) retires the old generation and creates a new one: the
	// old base becomes a tombstone — accessing it is a UAF.
	p := NewTemporal()
	p.Handle(msg(ipc.OpAllocCreate, 0x1000, 64))
	if v := p.Handle(ipc.Message{Op: ipc.OpAllocExtend, PID: 1, Arg1: 0x1000, Arg2: 0x2000, Arg3: 128}); v != nil {
		t.Fatalf("extend: %v", v)
	}
	if v := p.Handle(msg(ipc.OpAllocCheck, 0x1010)); v == nil {
		t.Error("access through stale pre-realloc pointer passed")
	}
	if v := p.Handle(msg(ipc.OpAllocCheck, 0x2010)); v != nil {
		t.Errorf("access to reallocated region flagged: %v", v)
	}
}

func TestTemporalDestroyAll(t *testing.T) {
	p := NewTemporal()
	p.Handle(msg(ipc.OpAllocCreate, 0x1000, 64))
	p.Handle(msg(ipc.OpAllocCreate, 0x2000, 64))
	if v := p.Handle(msg(ipc.OpAllocDestroyAll, 0x0, 0x10000)); v != nil {
		t.Fatalf("destroy-all: %v", v)
	}
	if got := p.Entries(); got != 0 {
		t.Errorf("Entries = %d after destroy-all, want 0", got)
	}
	if v := p.Handle(msg(ipc.OpAllocCheck, 0x2010)); v == nil {
		t.Error("access after destroy-all passed")
	}
	if v := p.Handle(msg(ipc.OpAllocDestroyAll, 0x0, 0x10000)); v == nil {
		t.Error("destroy-all with nothing live passed")
	}
}

func TestTemporalTombstoneEviction(t *testing.T) {
	// Long-running churn must not grow memory without bound: past the cap
	// the oldest tombstones are evicted, and a UAF against an evicted
	// generation degrades to not-found (spatial policy's problem) rather
	// than a leak. Three caps' worth of churn keeps the policy at the cap for
	// thousands of frees, the regime a long-running process lives in.
	p := NewTemporal()
	const n = 3 * maxTombstones
	base := func(i int) uint64 { return uint64(0x1000 + i*0x100) }
	for i := 0; i < n; i++ {
		if v := p.Handle(msg(ipc.OpAllocCreate, base(i), 16)); v != nil {
			t.Fatalf("create %d: %v", i, v)
		}
		if v := p.Handle(msg(ipc.OpAllocDestroy, base(i))); v != nil {
			t.Fatalf("destroy %d: %v", i, v)
		}
	}
	regions := checkSpanIndex(t, &p.regions)
	if len(regions) != maxTombstones || p.Entries() != 0 {
		t.Errorf("%d spans, %d live, want exactly the %d newest tombstones", len(regions), p.Entries(), maxTombstones)
	}
	// Smallest generation first: generation i+1 was allocation i, so the
	// survivors are exactly the last maxTombstones allocations.
	oldest := ^uint64(0)
	for _, s := range regions {
		if s.tag&tagDead == 0 {
			t.Fatalf("span %+v is live", s)
		}
		oldest = min(oldest, s.tag>>1)
	}
	if want := uint64(n - maxTombstones + 1); oldest != want {
		t.Errorf("oldest surviving tombstone is generation #%d, want #%d", oldest, want)
	}
	if len(p.graves) > 2*maxTombstones+graveSlack {
		t.Errorf("%d heap entries for %d tombstones", len(p.graves), maxTombstones)
	}
	// The newest tombstone is still attributable, the newest evicted one is
	// the spatial policy's problem.
	if v := p.Handle(msg(ipc.OpAllocCheck, base(n-1))); v == nil {
		t.Error("UAF against newest tombstone undetected")
	}
	if v := p.Handle(msg(ipc.OpAllocCheck, base(n-maxTombstones-1))); v != nil {
		t.Errorf("access to an evicted generation: %v", v)
	}
}

// TestTemporalEvictionSkipsReclaimedTombstones pins the lazy invalidation: a
// tombstone whose address the allocator reused leaves a stale heap entry
// behind, which eviction must skip rather than take for the live successor.
func TestTemporalEvictionSkipsReclaimedTombstones(t *testing.T) {
	p := NewTemporal()
	base := func(i int) uint64 { return uint64(0x1000 + i*0x100) }
	free := func(i int) {
		t.Helper()
		if v := p.Handle(msg(ipc.OpAllocDestroy, base(i))); v != nil {
			t.Fatalf("destroy %d: %v", i, v)
		}
	}
	alloc := func(i int) {
		t.Helper()
		if v := p.Handle(msg(ipc.OpAllocCreate, base(i), 16)); v != nil {
			t.Fatalf("create %d: %v", i, v)
		}
	}
	alloc(0)
	free(0)  // generation #1 dead ...
	alloc(0) // ... and reclaimed by #2, live at the same base
	for i := 1; i <= maxTombstones+1; i++ {
		alloc(i)
		free(i)
	}
	if v := p.Handle(msg(ipc.OpAllocCheck, base(0))); v != nil {
		t.Errorf("live generation #2 flagged after eviction ran past its stale predecessor: %v", v)
	}
	if got := p.Entries(); got != 1 {
		t.Errorf("Entries = %d, want 1", got)
	}
	dead := 0
	p.regions.each(func(s *span) { dead += int(s.tag & tagDead) })
	if dead != maxTombstones {
		t.Errorf("%d tombstones, want %d", dead, maxTombstones)
	}
	// #3 (slot 1) was the oldest real tombstone and is the one that went.
	if v := p.Handle(msg(ipc.OpAllocCheck, base(1))); v != nil {
		t.Errorf("evicted generation still attributed: %v", v)
	}
	if v := p.Handle(msg(ipc.OpAllocCheck, base(2))); v == nil {
		t.Error("generation #4 should still be a tombstone")
	}
}
