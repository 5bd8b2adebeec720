package policy

import (
	"testing"

	"herqules/internal/ipc"
)

// checkSpanIndex asserts the structural invariants of a spanIndex and returns
// its spans in order.
func checkSpanIndex(t testing.TB, x *spanIndex) []span {
	t.Helper()
	var all []span
	if len(x.tops) != len(x.leaves) {
		t.Fatalf("%d tops for %d leaves", len(x.tops), len(x.leaves))
	}
	for li, l := range x.leaves {
		if len(l) == 0 {
			t.Fatalf("leaf %d of %d is empty", li, len(x.leaves))
		}
		if len(l) > spanLeafCap {
			t.Fatalf("leaf %d holds %d spans, cap %d", li, len(l), spanLeafCap)
		}
		if top := l[len(l)-1].end(); x.tops[li] != top {
			t.Fatalf("leaf %d ends at %#x, its top says %#x", li, top, x.tops[li])
		}
		all = append(all, l...)
	}
	if len(all) != x.n {
		t.Fatalf("index counts %d spans, leaves hold %d", x.n, len(all))
	}
	for i, s := range all {
		if s.size == 0 || wraps(s.base, s.size) {
			t.Fatalf("span %d [%#x,+%#x) is empty or wraps", i, s.base, s.size)
		}
		if i > 0 && all[i-1].end() > s.base {
			t.Fatalf("spans %d and %d overlap or are out of order: [%#x,+%#x) then [%#x,+%#x)",
				i-1, i, all[i-1].base, all[i-1].size, s.base, s.size)
		}
	}
	return all
}

// allocPair is the live memsafety+temporal next to their sorted-slice
// references, fed the same messages.
type allocPair struct {
	ms  *MemSafety
	tp  *Temporal
	rms *refMemSafety
	rtp *refTemporal
}

func newAllocPair() *allocPair {
	return &allocPair{NewMemSafety(), NewTemporal(), newRefMemSafety(), newRefTemporal()}
}

func (p *allocPair) clone() *allocPair {
	return &allocPair{p.ms.Clone().(*MemSafety), p.tp.Clone().(*Temporal),
		p.rms.Clone().(*refMemSafety), p.rtp.Clone().(*refTemporal)}
}

func sameViolation(a, b *Violation) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// handle feeds m to all four and fails on the first observable difference.
func (p *allocPair) handle(t testing.TB, who string, step int, m ipc.Message) {
	if got, want := p.ms.Handle(m), p.rms.Handle(m); !sameViolation(got, want) {
		t.Fatalf("%s step %d %v: memsafety = %v, reference = %v", who, step, m, got, want)
	}
	if got, want := p.tp.Handle(m), p.rtp.Handle(m); !sameViolation(got, want) {
		t.Fatalf("%s step %d %v: temporal = %v, reference = %v", who, step, m, got, want)
	}
	if p.ms.Entries() != p.rms.Entries() || p.ms.MaxEntries() != p.rms.MaxEntries() {
		t.Fatalf("%s step %d %v: memsafety entries %d (max %d), reference %d (max %d)", who, step, m,
			p.ms.Entries(), p.ms.MaxEntries(), p.rms.Entries(), p.rms.MaxEntries())
	}
	if p.tp.Entries() != p.rtp.Entries() || p.tp.MaxEntries() != p.rtp.MaxEntries() {
		t.Fatalf("%s step %d %v: temporal entries %d (max %d), reference %d (max %d)", who, step, m,
			p.tp.Entries(), p.tp.MaxEntries(), p.rtp.Entries(), p.rtp.MaxEntries())
	}
}

// audit compares the full tables, span by span, and the index invariants.
func (p *allocPair) audit(t testing.TB, who string, step int) {
	t.Helper()
	allocs := checkSpanIndex(t, &p.ms.allocs)
	if len(allocs) != len(p.rms.allocs) {
		t.Fatalf("%s step %d: memsafety holds %d spans, reference %d", who, step, len(allocs), len(p.rms.allocs))
	}
	for i, s := range allocs {
		if r := p.rms.allocs[i]; s.base != r.base || s.size != r.size {
			t.Fatalf("%s step %d: memsafety span %d = [%#x,+%#x), reference [%#x,+%#x)", who, step, i, s.base, s.size, r.base, r.size)
		}
	}
	regions := checkSpanIndex(t, &p.tp.regions)
	if len(regions) != len(p.rtp.regions) {
		t.Fatalf("%s step %d: temporal holds %d spans, reference %d", who, step, len(regions), len(p.rtp.regions))
	}
	for i, s := range regions {
		if r := p.rtp.regions[i]; s.base != r.base || s.size != r.size || s.tag>>1 != r.gen || (s.tag&tagDead != 0) != r.dead {
			t.Fatalf("%s step %d: temporal span %d = %+v, reference %+v", who, step, i, s, r)
		}
	}
	dead := 0
	for _, s := range regions {
		if s.tag&tagDead != 0 {
			dead++
			if base, ok := p.tp.tombs.get(s.tag >> 1); !ok || base != s.base {
				t.Fatalf("%s step %d: tombstone %+v is in the grave table as %#x,%t", who, step, s, base, ok)
			}
		}
	}
	if p.tp.tombs.live != dead {
		t.Fatalf("%s step %d: %d generations in the grave table for %d tombstones", who, step, p.tp.tombs.live, dead)
	}
	if len(p.tp.graves) > 2*dead+graveSlack {
		t.Fatalf("%s step %d: %d heap entries for %d tombstones", who, step, len(p.tp.graves), dead)
	}
}

const (
	diffSlots    = 4096 // × 4 positions each: enough spans for leaves to split and empty, and for the tombstone cap
	diffHeap     = 0x7f00_0000_0000
	diffSlotStep = 0x100
)

// diffMessage decodes four bytes into one allocation message over a heap of
// diffSlots slots with four 0x40-byte positions each. mirror flips the slot,
// so a clone can be driven with a different stream than its parent.
func diffMessage(b [4]byte, mirror bool) ipc.Message {
	slot := (uint64(b[1])<<8 | uint64(b[2])) % diffSlots
	if mirror {
		slot = diffSlots - 1 - slot
	}
	c := uint64(b[3])
	base := uint64(diffHeap) + slot*diffSlotStep + (c&3)*0x40
	size := uint64(0x30)
	switch (c >> 2) % 16 {
	case 0:
		size = 0
	case 1:
		size = diffSlotStep // runs into the next slot
	case 2:
		size = 4 * diffSlotStep
	}
	m := ipc.Message{PID: 7}
	switch k := b[0] % 32; {
	case k < 10:
		m.Op, m.Arg1, m.Arg2 = ipc.OpAllocCreate, base, size
	case k < 16:
		m.Op, m.Arg1 = ipc.OpAllocCheck, base+c
	case k < 19:
		m.Op, m.Arg1, m.Arg2 = ipc.OpAllocCheckBase, base+c%0x30, base+c
	case k < 27:
		m.Op, m.Arg1 = ipc.OpAllocDestroy, base
		if c>>4 == 0 {
			m.Arg1 += 8 // interior pointer: invalid free
		}
	case k < 30:
		to := (slot*31 + c) % diffSlots
		m.Op, m.Arg1, m.Arg2, m.Arg3 = ipc.OpAllocExtend, base, diffHeap+to*diffSlotStep, size
	default:
		if c < 8 { // rare: wipes up to eight slots
			m.Op, m.Arg1, m.Arg2 = ipc.OpAllocDestroyAll, base, (c+1)*diffSlotStep
		} else {
			m.Op, m.Arg1 = ipc.OpAllocCheck, base
		}
	}
	return m
}

// runAllocDiff drives the live policies and the references with the stream
// decoded from data, four bytes a step. A step whose first byte is 0xff
// clones the parent pair (replacing any earlier clone); from then on the
// parent keeps taking the stream while the clone takes its mirror image, so
// state shared between the two shows up as a divergence from a reference.
// It returns the most tombstones the reference ever held.
func runAllocDiff(t testing.TB, data []byte) (peakDead int) {
	parent := newAllocPair()
	var child *allocPair
	step := 0
	for ; len(data) >= 4; data, step = data[4:], step+1 {
		b := [4]byte(data[:4])
		if b[0] == 0xff {
			child = parent.clone()
			child.audit(t, "clone", step)
			continue
		}
		parent.handle(t, "parent", step, diffMessage(b, false))
		if child != nil {
			child.handle(t, "clone", step, diffMessage(b, true))
		}
		if dead := len(parent.rtp.regions) - parent.rtp.live; dead > peakDead {
			peakDead = dead
		}
		if step%4096 == 0 {
			parent.audit(t, "parent", step)
			if child != nil {
				child.audit(t, "clone", step)
			}
		}
	}
	parent.audit(t, "parent", step)
	if child != nil {
		child.audit(t, "clone", step)
	}
	return peakDead
}

// diffStream is a seeded random stream of steps steps with one Clone in the
// middle.
func diffStream(seed uint64, steps int) []byte {
	data := make([]byte, 4*steps)
	x := seed | 1
	for i := 0; i < len(data); i += 4 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		r := x * 0x2545f4914f6cdd1d
		data[i], data[i+1], data[i+2], data[i+3] = byte(r>>56)&0x7f, byte(r>>48), byte(r>>40), byte(r>>32)
	}
	data[4*(steps/2)] = 0xff
	return data
}

// TestAllocPoliciesMatchSortedSliceReference is the differential oracle for
// the move onto spanIndex: every violation (every field), Entries and
// MaxEntries equal the sorted-slice implementations' at every step, through
// leaf splits, emptied leaves, tombstone eviction at the cap and a Clone.
func TestAllocPoliciesMatchSortedSliceReference(t *testing.T) {
	// A random stream takes some 75 k steps to pile up maxTombstones, so the
	// first stream opens with a create+free of one allocation in each of
	// 4200 slots and spends all its random steps at the cap, evicting. The
	// reference is slow there (a full scan per eviction, a 130 KB shift per
	// create), hence the modest step counts.
	churn := make([]byte, 0, 8*4200)
	for slot := 0; slot < 4200; slot++ {
		hi, lo := byte(slot>>8), byte(slot)
		churn = append(churn, 0, hi, lo, 0x0c, 20, hi, lo, 0x10)
	}
	streams := [][]byte{
		append(churn, diffStream(1, 25_000)...),
		diffStream(2, 25_000),
		diffStream(3, 25_000),
	}
	if testing.Short() {
		streams = [][]byte{diffStream(1, 20_000)}
	}
	for i, data := range streams {
		peak := runAllocDiff(t, data)
		if i == 0 && !testing.Short() && peak < maxTombstones {
			t.Errorf("the stream peaked at %d tombstones, never reaching the cap of %d: eviction went untested", peak, maxTombstones)
		}
	}
}

// FuzzAllocPolicies is the same comparison over fuzzer-chosen streams.
func FuzzAllocPolicies(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 20, 0, 1, 0xf0, 0, 0, 1, 0})                          // create, destroy, create again
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 8, 27, 0, 1, 0, 0xff, 0, 0, 0, 30, 0, 0, 7}) // overlap, extend, clone, destroy-all
	f.Add(diffStream(42, 800))
	f.Fuzz(func(t *testing.T, data []byte) { runAllocDiff(t, data) })
}

// wrapSequence is the stream that broke the sorted-slice tables: the second
// allocation's end wraps past 2^64, after which the search predicate is no
// longer monotone and a check inside the first allocation misses it.
func wrapSequence() []ipc.Message {
	return []ipc.Message{
		msg(ipc.OpAllocCreate, 0x1000, 16),
		msg(ipc.OpAllocCreate, ^uint64(0)-7, 16),
		msg(ipc.OpAllocCreate, 0x2000, 16),
		msg(ipc.OpAllocCheck, 0x1008),
	}
}

func testWrapRejected(t *testing.T, p Policy, index *spanIndex) {
	t.Helper()
	for i, m := range wrapSequence() {
		v := p.Handle(m)
		switch {
		case i == 1 && (v == nil || v.Reason != "allocation wraps the address space"):
			t.Fatalf("wrapping create: %v, want the wrap violation", v)
		case i != 1 && v != nil:
			t.Fatalf("message %d %v of a clean process: %v", i, m, v)
		}
	}
	if got := p.Entries(); got != 2 {
		t.Errorf("Entries = %d, want 2", got)
	}
	// The largest span that fits is fine; one byte more, or a realloc to a
	// wrapping target, is refused before the old allocation is given up.
	if v := p.Handle(msg(ipc.OpAllocCreate, ^uint64(0)-16, 16)); v != nil {
		t.Errorf("allocation ending at 2^64-1: %v", v)
	}
	if v := p.Handle(msg(ipc.OpAllocExtend, 0x1000, ^uint64(0)-15, 16)); v == nil || v.Reason != "allocation wraps the address space" {
		t.Errorf("wrapping extend: %v, want the wrap violation", v)
	}
	if v := p.Handle(msg(ipc.OpAllocCheck, 0x1008)); v != nil {
		t.Errorf("refused extend gave up the old allocation: %v", v)
	}
	if v := p.Handle(msg(ipc.OpAllocCreate, ^uint64(0), 0)); v == nil {
		t.Error("zero-size (one-byte) allocation at 2^64-1 accepted")
	}
	checkSpanIndex(t, index)
}

func TestMemSafetyWrapRejected(t *testing.T) {
	p := NewMemSafety()
	testWrapRejected(t, p, &p.allocs)
}

func TestTemporalWrapRejected(t *testing.T) {
	p := NewTemporal()
	testWrapRejected(t, p, &p.regions)
}

// TestSpanIndexSplitAndEmpty walks one index through both directory changes:
// ascending, descending and middle inserts until leaves split, then removal
// of whole leaves from the front, the back and the middle.
func TestSpanIndexSplitAndEmpty(t *testing.T) {
	var x spanIndex
	const n = 5 * spanLeafCap
	order := make([]uint64, 0, n)
	for i := 0; i < n; i += 3 {
		order = append(order, uint64(i))
	}
	for i := n - 1; i >= 0; i-- {
		if i%3 == 1 {
			order = append(order, uint64(i))
		}
	}
	for i := 2; i < n; i += 3 {
		order = append(order, uint64(i))
	}
	for _, i := range order {
		base := 0x1000 + i*0x20
		if s, _ := x.find(base); s != nil {
			t.Fatalf("span %d found before insert", i)
		}
		x.insert(x.seek(base), span{base: base, size: 0x10, tag: i})
		checkSpanIndex(t, &x)
	}
	if len(x.leaves) < n/spanLeafCap {
		t.Fatalf("%d spans in %d leaves", n, len(x.leaves))
	}
	for i := uint64(0); i < n; i++ {
		s, _ := x.find(0x1000 + i*0x20 + 0xf)
		if s == nil || s.tag != i {
			t.Fatalf("find inside span %d = %+v", i, s)
		}
		if s, _ := x.find(0x1000 + i*0x20 + 0x10); s != nil {
			t.Fatalf("find in the gap after span %d = %+v", i, s)
		}
	}
	c := x.clone()
	leaves := len(x.leaves)
	remove := func(i uint64) {
		s, at := x.find(0x1000 + i*0x20)
		if s == nil || s.tag != i {
			t.Fatalf("span %d missing before remove", i)
		}
		x.remove(at)
		checkSpanIndex(t, &x)
	}
	for i := uint64(0); i < spanLeafCap; i++ { // front
		remove(i)
	}
	for i := uint64(n - 1); i >= n-spanLeafCap; i-- { // back
		remove(i)
	}
	for i := uint64(n/2 - spanLeafCap/2); i < n/2+spanLeafCap/2; i++ { // middle
		remove(i)
	}
	if len(x.leaves) >= leaves {
		t.Errorf("%d leaves before removing %d spans, %d after: emptied leaves stayed", leaves, 3*spanLeafCap, len(x.leaves))
	}
	if got := x.removeIf(func(s *span) bool { return s.tag%2 == 0 }); got == 0 || x.n != n-3*spanLeafCap-got {
		t.Errorf("removeIf dropped %d, index holds %d", got, x.n)
	}
	checkSpanIndex(t, &x)
	if all := checkSpanIndex(t, &c); len(all) != n {
		t.Errorf("clone holds %d spans after the original shrank, want %d", len(all), n)
	}
}
