package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func mustMap(t *testing.T, m *Memory, addr, size uint64, perm Perm) {
	t.Helper()
	if err := m.Map(addr, size, perm); err != nil {
		t.Fatalf("Map(%#x, %#x): %v", addr, size, err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, Read|Write)
	data := []byte("herqules")
	if err := m.Write(0x1800, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(data))
	if err := m.Read(0x1800, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(got) != string(data) {
		t.Errorf("Read = %q, want %q", got, data)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, Read|Write)
	// Write spanning the page boundary at 0x2000.
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	addr := uint64(0x2000 - 50)
	if err := m.Write(addr, data); err != nil {
		t.Fatalf("cross-page Write: %v", err)
	}
	got := make([]byte, 100)
	if err := m.Read(addr, got); err != nil {
		t.Fatalf("cross-page Read: %v", err)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("byte %d: got %d, want %d", i, got[i], i)
		}
	}
}

func TestUnmappedFault(t *testing.T) {
	m := New()
	err := m.Read(0x5000, make([]byte, 8))
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultUnmapped {
		t.Errorf("Read unmapped: err=%v, want unmapped fault", err)
	}
}

func TestWriteToReadOnlyFaults(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, Read)
	err := m.Write(0x1000, []byte{1})
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultPerm {
		t.Errorf("Write to read-only: err=%v, want protection fault", err)
	}
	// Reads still work.
	if err := m.Read(0x1000, make([]byte, 4)); err != nil {
		t.Errorf("Read from read-only: %v", err)
	}
}

func TestWriteStopsAtSegmentBoundary(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, Read|Write)
	mustMap(t, m, 0x2000, PageSize, Read) // adjacent read-only (guard-like)
	// A write straddling into the read-only page must fault entirely.
	err := m.Write(0x2000-4, make([]byte, 8))
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultPerm {
		t.Fatalf("straddling write: err=%v, want protection fault", err)
	}
	// And must not have partially committed.
	got := make([]byte, 4)
	if err := m.Read(0x2000-4, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Error("partial write committed before fault")
		}
	}
}

func TestAppendOnlyRegionRejectsOrdinaryWrites(t *testing.T) {
	m := New()
	mustMap(t, m, 0x10000, PageSize, Read|Append)
	// Ordinary write is rejected by the MMU (§2.3.2)...
	if err := m.Write(0x10000, []byte{1}); err == nil {
		t.Error("ordinary write to AMR succeeded")
	}
	// ...even if Write permission is also present.
	mustMap(t, m, 0x30000, PageSize, Read|Write|Append)
	if err := m.Write(0x30000, []byte{1}); err == nil {
		t.Error("ordinary write to AMR with Write perm succeeded")
	}
	// AppendWrite is allowed.
	if err := m.AppendWrite(0x10000, []byte{0xaa}); err != nil {
		t.Errorf("AppendWrite to AMR: %v", err)
	}
	b, err := m.LoadByte(0x10000)
	if err != nil || b != 0xaa {
		t.Errorf("ReadByte after AppendWrite: %v %v", b, err)
	}
	// AppendWrite to a normal page is rejected.
	mustMap(t, m, 0x20000, PageSize, Read|Write)
	if err := m.AppendWrite(0x20000, []byte{1}); err == nil {
		t.Error("AppendWrite outside AMR succeeded")
	}
}

func TestDoubleMapFails(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, Read)
	if err := m.Map(0x1000, PageSize, Read); err == nil {
		t.Error("double Map succeeded")
	}
	if err := m.Map(0, 0, Read); err == nil {
		t.Error("zero-size Map succeeded")
	}
}

func TestWordAccessors(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, Read|Write)
	if err := m.WriteWord(0x1008, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadWord(0x1008)
	if err != nil || v != 0x1122334455667788 {
		t.Errorf("ReadWord = %#x, %v", v, err)
	}
	// Verify little-endian layout.
	b, _ := m.LoadByte(0x1008)
	if b != 0x88 {
		t.Errorf("low byte = %#x, want 0x88 (little-endian)", b)
	}
}

func TestWordRoundTripProperty(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, Read|Write)
	f := func(off uint16, v uint64) bool {
		addr := 0x1000 + uint64(off)%(PageSize-8)
		if err := m.WriteWord(addr, v); err != nil {
			return false
		}
		got, err := m.ReadWord(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemmoveOverlap(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, Read|Write)
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := m.Write(0x1000, src); err != nil {
		t.Fatal(err)
	}
	if err := m.Memmove(0x1002, 0x1000, 8); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 10)
	if err := m.Read(0x1000, got); err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 1, 2, 3, 4, 5, 6, 7, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("overlap copy: got %v, want %v", got, want)
		}
	}
}

func TestMemset(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, Read|Write)
	if err := m.Memset(0x1010, 0x5a, 32); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 32)
	m.Read(0x1010, got)
	for _, b := range got {
		if b != 0x5a {
			t.Fatal("Memset did not fill")
		}
	}
}

func newTestAllocator(t *testing.T) *Allocator {
	t.Helper()
	m := New()
	mustMap(t, m, 0x100000, 64*PageSize, Read|Write)
	return NewAllocator(m, 0x100000, 64*PageSize)
}

func TestMallocFreeBasics(t *testing.T) {
	a := newTestAllocator(t)
	p1, err := a.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Malloc(200)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("overlapping allocations")
	}
	if p1%allocAlign != 0 || p2%allocAlign != 0 {
		t.Error("allocations not 16-byte aligned")
	}
	if sz, ok := a.SizeOf(p1); !ok || sz < 100 {
		t.Errorf("SizeOf(p1) = %d, %t", sz, ok)
	}
	if len(a.live) != 2 {
		t.Errorf("%d live allocations, want 2", len(a.live))
	}
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p2); err != nil {
		t.Fatal(err)
	}
	if len(a.live) != 0 {
		t.Errorf("%d live allocations after freeing all", len(a.live))
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	a := newTestAllocator(t)
	p, _ := a.Malloc(64)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); !errors.Is(err, ErrInvalidFree) {
		t.Errorf("double free: err=%v, want ErrInvalidFree", err)
	}
	if err := a.Free(0xdead0); !errors.Is(err, ErrInvalidFree) {
		t.Errorf("wild free: err=%v, want ErrInvalidFree", err)
	}
}

func TestFreeReusesMemory(t *testing.T) {
	// First-fit with coalescing must reuse a freed chunk — this is what
	// makes use-after-free bugs observable.
	a := newTestAllocator(t)
	p1, _ := a.Malloc(64)
	a.Free(p1)
	p2, _ := a.Malloc(64)
	if p1 != p2 {
		t.Errorf("freed chunk not reused: %#x then %#x", p1, p2)
	}
}

func TestCoalescingPreventsFragmentationExhaustion(t *testing.T) {
	a := newTestAllocator(t)
	var ps []uint64
	for i := 0; i < 100; i++ {
		p, err := a.Malloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	// After freeing everything, a single allocation of nearly the whole
	// heap must succeed — only possible if chunks coalesced.
	if _, err := a.Malloc(60 * PageSize); err != nil {
		t.Errorf("large Malloc after free-all: %v", err)
	}
}

func TestReallocGrowPreservesContent(t *testing.T) {
	a := newTestAllocator(t)
	p, _ := a.Malloc(32)
	a.mem.Write(p, []byte("payload"))
	// Force a move by allocating a blocker right after.
	blocker, _ := a.Malloc(32)
	np, err := a.Realloc(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if np == p {
		t.Error("Realloc did not move despite blocker")
	}
	got := make([]byte, 7)
	a.mem.Read(np, got)
	if string(got) != "payload" {
		t.Errorf("content after realloc = %q", got)
	}
	if _, ok := a.SizeOf(p); ok {
		t.Error("old allocation still live after realloc move")
	}
	_ = blocker
	if _, err := a.Realloc(0xbad0, 10); !errors.Is(err, ErrInvalidFree) {
		t.Errorf("realloc of wild pointer: %v", err)
	}
}

func TestReallocShrinkInPlace(t *testing.T) {
	a := newTestAllocator(t)
	p, _ := a.Malloc(1024)
	np, err := a.Realloc(p, 16)
	if err != nil || np != p {
		t.Errorf("shrink: np=%#x err=%v, want in-place", np, err)
	}
}

func TestMallocExhaustion(t *testing.T) {
	a := newTestAllocator(t)
	if _, err := a.Malloc(1 << 40); !errors.Is(err, ErrOOM) {
		t.Errorf("huge Malloc: err=%v, want ErrOOM", err)
	}
}

func TestContains(t *testing.T) {
	a := newTestAllocator(t)
	p, _ := a.Malloc(64)
	if base, ok := a.Contains(p + 10); !ok || base != p {
		t.Errorf("Contains(p+10) = %#x, %t", base, ok)
	}
	if _, ok := a.Contains(p + 1<<30); ok {
		t.Error("Contains reported a wild address as live")
	}
}

func TestAllocatorInvariantProperty(t *testing.T) {
	// Property: after any sequence of mallocs and frees, live allocations
	// never overlap and always lie within the heap segment.
	f := func(ops []uint16) bool {
		m := New()
		if err := m.Map(0x100000, 16*PageSize, Read|Write); err != nil {
			return false
		}
		a := NewAllocator(m, 0x100000, 16*PageSize)
		var livePtrs []uint64
		for _, op := range ops {
			if op%3 == 0 && len(livePtrs) > 0 {
				i := int(op) % len(livePtrs)
				if a.Free(livePtrs[i]) != nil {
					return false
				}
				livePtrs = append(livePtrs[:i], livePtrs[i+1:]...)
			} else {
				size := uint64(op%500) + 1
				p, err := a.Malloc(size)
				if err != nil {
					continue // heap full is fine
				}
				if p < 0x100000 || p+size > 0x100000+16*PageSize {
					return false
				}
				livePtrs = append(livePtrs, p)
			}
		}
		// Check pairwise disjointness.
		for i, p := range livePtrs {
			szI, _ := a.SizeOf(p)
			for j, q := range livePtrs {
				if i == j {
					continue
				}
				szJ, _ := a.SizeOf(q)
				if p < q+szJ && q < p+szI {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
