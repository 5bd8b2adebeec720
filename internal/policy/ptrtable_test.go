package policy

import (
	"math/rand"
	"testing"

	"herqules/internal/ipc"
)

// TestPtrTableMatchesMap drives the flat table and a reference Go map with an
// identical randomized op stream — including the define/invalidate churn the
// CFI workload is made of — and requires identical observable state at every
// step. The seed is fixed so a failure reproduces.
func TestPtrTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9e3779b9))
	tab := newPtrTable()
	ref := make(map[uint64]uint64)
	// Small key space forces collisions, probe chains, backward shifts and
	// growth; keys step by 8 like real pointer addresses, and key 0 — which
	// lives beside the slot array — is one of them.
	key := func() uint64 {
		if rng.Intn(16) == 0 {
			return 0
		}
		return 0x1000 + 8*uint64(rng.Intn(512))
	}
	for i := 0; i < 200000; i++ {
		k := key()
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // define
			v := rng.Uint64()
			tab.put(k, v)
			ref[k] = v
		case 4, 5, 6: // invalidate
			got := tab.del(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("step %d: del(%#x) = %t, want %t", i, k, got, want)
			}
			delete(ref, k)
		default: // check
			gotV, gotOK := tab.get(k)
			wantV, wantOK := ref[k]
			if gotOK != wantOK || gotV != wantV {
				t.Fatalf("step %d: get(%#x) = %#x,%t want %#x,%t", i, k, gotV, gotOK, wantV, wantOK)
			}
		}
		if tab.live != len(ref) {
			t.Fatalf("step %d: live = %d, want %d", i, tab.live, len(ref))
		}
		if used := slotsUsed(tab); used*4 > len(tab.ents)*3 {
			t.Fatalf("step %d: %d entries in %d slots, past 3/4", i, used, len(tab.ents))
		}
	}
	// Everything still present must be enumerable exactly once.
	seen := make(map[uint64]uint64)
	tab.each(func(k, v uint64) {
		if _, dup := seen[k]; dup {
			t.Fatalf("each visited %#x twice", k)
		}
		seen[k] = v
	})
	if len(seen) != len(ref) {
		t.Fatalf("each enumerated %d entries, want %d", len(seen), len(ref))
	}
	for k, v := range ref {
		if seen[k] != v {
			t.Fatalf("each: key %#x = %#x, want %#x", k, seen[k], v)
		}
	}
}

// TestPtrTableChurnStaysCompact pins what the CFI define/invalidate cycle
// depends on: cycling a bounded working set through the table must not grow
// it. The second half is the ring_policy shape — a table filled to exactly
// 3/4 of its slots, then updates and invalidate/define pairs for ten times
// its size — where a table that counts updates or deleted slots toward its
// load bound doubles on the first update.
func TestPtrTableChurnStaysCompact(t *testing.T) {
	tab := newPtrTable()
	const working = 1024
	for i := 0; i < working; i++ {
		tab.put(uint64(0x1000+8*i), uint64(i))
	}
	capAfterFill := len(tab.ents)
	for round := 0; round < 64; round++ {
		for i := 0; i < working; i++ {
			k := uint64(0x1000 + 8*i)
			if !tab.del(k) {
				t.Fatalf("round %d: del(%#x) missed", round, k)
			}
			tab.put(k, uint64(round))
		}
	}
	if len(tab.ents) != capAfterFill {
		t.Fatalf("steady-state churn grew the table: cap %d -> %d", capAfterFill, len(tab.ents))
	}
	if tab.live != working {
		t.Fatalf("live = %d, want %d", tab.live, working)
	}

	tab = newPtrTable()
	const slots = 1 << 14
	full := slots * 3 / 4
	key := func(i uint64) uint64 { return 0x7f00_0000_0000 + 8*i }
	for i := uint64(0); i < uint64(full); i++ {
		tab.put(key(i), i)
	}
	if len(tab.ents) != slots || tab.live != full {
		t.Fatalf("%d entries in %d slots, want %d in %d", tab.live, len(tab.ents), full, slots)
	}
	x := uint64(1)
	for step := 0; step < 10*slots; step++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := key(x % uint64(full))
		switch step % 3 {
		case 0: // update
			tab.put(k, x)
		case 1: // invalidate, define
			if !tab.del(k) {
				t.Fatalf("step %d: del(%#x) missed", step, k)
			}
			tab.put(k, x)
		default:
			if _, ok := tab.get(k); !ok {
				t.Fatalf("step %d: get(%#x) missed", step, k)
			}
		}
		if len(tab.ents) != slots {
			t.Fatalf("step %d: churn at exactly 3/4 grew the table to %d slots", step, len(tab.ents))
		}
	}
	if tab.live != full {
		t.Fatalf("live = %d, want %d", tab.live, full)
	}
}

// TestPtrTableZeroKey covers address zero, which must behave like any other
// key (flat tables often reserve a zero sentinel; this one must not).
func TestPtrTableZeroKey(t *testing.T) {
	tab := newPtrTable()
	tab.put(0, 42)
	if v, ok := tab.get(0); !ok || v != 42 {
		t.Fatalf("get(0) = %d,%t want 42,true", v, ok)
	}
	if !tab.del(0) {
		t.Fatal("del(0) missed")
	}
	if _, ok := tab.get(0); ok {
		t.Fatal("key 0 still present after del")
	}
	if tab.del(0) || tab.live != 0 {
		t.Fatalf("second del(0) hit, or live = %d", tab.live)
	}

	// Key 0 present across a growth: still found, and counted once.
	tab.put(0, 7)
	n := 1
	for ; len(tab.ents) == minPtrTableCap; n++ {
		tab.put(8*uint64(n), 1)
	}
	if v, ok := tab.get(0); !ok || v != 7 {
		t.Fatalf("after growth to %d slots: get(0) = %d,%t want 7,true", len(tab.ents), v, ok)
	}
	tab.put(0, 8) // an update, not a second entry
	seen := 0
	tab.each(func(k, _ uint64) {
		if k == 0 {
			seen++
		}
	})
	if tab.live != n || seen != 1 {
		t.Fatalf("%d keys, key 0 among them: live = %d, each met key 0 %d times", n, tab.live, seen)
	}
}

// TestPrefetchSizeGatedAndReadOnly pins the look-ahead contract on cfi and
// dfi: below touchMinCap slots the pass does not run at all, above it loads
// table lines and nothing else — forged addresses included, since it runs
// before authentication.
func TestPrefetchSizeGatedAndReadOnly(t *testing.T) {
	c, d := NewCFI(), NewDFI()
	window := func(n uint64) []ipc.Message {
		ms := []ipc.Message{msg(ipc.OpPointerCheck, 0xdead_beef_0000, 1), msg(ipc.OpDFICheck, 0xdead_beef_0000, 0),
			msg(ipc.OpPointerBlockInvalidate, 0, ^uint64(0)), msg(ipc.OpAllocCreate, 0x1000, 16)}
		for i := uint64(0); i < n; i++ {
			ms = append(ms, msg(ipc.OpPointerCheck, 0x1000+8*i, i), msg(ipc.OpDFISet, 0x1000+8*i, 9))
		}
		return ms
	}
	fill := func(from, to uint64) {
		for i := from; i < to; i++ {
			c.Handle(msg(ipc.OpPointerDefine, 0x1000+8*i, i))
			d.Handle(msg(ipc.OpDFISet, 0x1000+8*i, 1+i%4))
		}
	}
	fill(0, 1000)
	c.Prefetch(window(60))
	d.Prefetch(window(60))
	if c.table.worthTouching() || d.last.worthTouching() || c.touched != 0 || d.touched != 0 {
		t.Fatalf("1000-entry tables (%d slots) ran the look-ahead: cfi %#x, dfi %#x", len(c.table.ents), c.touched, d.touched)
	}
	fill(1000, touchMinCap/2)
	if !c.table.worthTouching() || !d.last.worthTouching() {
		t.Fatalf("%d entries in %d slots: below the gate of %d", c.Entries(), len(c.table.ents), touchMinCap)
	}
	c.Prefetch(window(60))
	d.Prefetch(window(60))
	if c.touched == 0 || d.touched == 0 {
		t.Errorf("look-ahead over resident keys loaded nothing: cfi %#x, dfi %#x", c.touched, d.touched)
	}
	if c.Entries() != touchMinCap/2 || d.Entries() != touchMinCap/2 {
		t.Errorf("Prefetch changed the tables: cfi %d, dfi %d entries", c.Entries(), d.Entries())
	}
	for i := uint64(0); i < 60; i++ {
		if v := c.Handle(msg(ipc.OpPointerCheck, 0x1000+8*i, i)); v != nil {
			t.Fatalf("pointer %d after Prefetch: %v", i, v)
		}
		if got := d.LastWriter(0x1000 + 8*i); got != 1+i%4 {
			t.Fatalf("last writer of %d after Prefetch = %d, want %d (a prefetched OpDFISet must not be applied)", i, got, 1+i%4)
		}
	}
}
