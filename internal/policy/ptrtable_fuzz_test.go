package policy

import (
	"testing"

	"herqules/internal/ipc"
)

// phiInv is the inverse of the table's hash multiplier modulo 2^64, so
// homedKey can pick a key by the slot it hashes to.
var phiInv = func() uint64 {
	const phi = 0x9E3779B97F4A7C15
	inv := uint64(phi) // right in the low three bits; each step doubles that
	for i := 0; i < 5; i++ {
		inv *= 2 - phi*inv
	}
	return inv
}()

// homedKey returns the j-th key (j < 2^40) whose hash carries top in its top
// 24 bits, so at every capacity up to 2^24 slots they all share one home:
// top 0xffffff is the last slot, 0 the first, 0x800000 the middle one.
func homedKey(top, j uint64) uint64 { return (top<<40 | j) * phiInv }

// refBlockCopy and refBlockInvalidate are CFI's block operations on a map.
func refBlockCopy(ref map[uint64]uint64, src, dst, n uint64, move bool) {
	found := make(map[uint64]uint64)
	for a, v := range ref {
		if a >= src && a-src < n {
			found[a-src] = v
		}
	}
	if move {
		for off := range found {
			delete(ref, src+off)
		}
	}
	refBlockInvalidate(ref, dst, n)
	for off, v := range found {
		ref[dst+off] = v
	}
}

func refBlockInvalidate(ref map[uint64]uint64, addr, n uint64) {
	for a := range ref {
		if a >= addr && a-addr < n {
			delete(ref, a)
		}
	}
}

// sameAsMap fails unless tab holds exactly ref: live, a lookup of every key
// of ref, and one enumeration that meets every entry once.
func sameAsMap(t testing.TB, tab *ptrTable, ref map[uint64]uint64, what string) {
	t.Helper()
	if tab.live != len(ref) {
		t.Fatalf("%s: live = %d, want %d", what, tab.live, len(ref))
	}
	for k, want := range ref {
		if v, ok := tab.get(k); !ok || v != want {
			t.Fatalf("%s: get(%#x) = %#x,%t want %#x,true", what, k, v, ok, want)
		}
	}
	seen := make(map[uint64]bool, len(ref))
	tab.each(func(k, v uint64) {
		if want, ok := ref[k]; !ok || v != want || seen[k] {
			t.Fatalf("%s: each met %#x=%#x (reference %#x,%t, seen before %t)", what, k, v, want, ok, seen[k])
		}
		seen[k] = true
	})
	if len(seen) != len(ref) {
		t.Fatalf("%s: each met %d entries, want %d", what, len(seen), len(ref))
	}
}

// slotsUsed is the number of slots tab's entries fill: all but key 0's.
func slotsUsed(tab *ptrTable) int {
	if tab.hasZero {
		return tab.live - 1
	}
	return tab.live
}

// fuzzKeys is FuzzPtrTable's key space, indexed by a byte: key 0, 127
// pointer-like addresses, and 128 keys forced onto three home slots — 64 onto
// the last one, so their cluster wraps the array end at every capacity.
var fuzzKeys = func() (keys [256]uint64) {
	for b := range keys {
		j := uint64(b&63) + 1 // homedKey(0, 0) would be key 0
		switch b >> 6 {
		case 0, 1:
			keys[b] = 0x1000 + 8*uint64(b) // b = 0 is key 0 below
		case 2:
			keys[b] = homedKey(0xffffff, j)
		default:
			keys[b] = homedKey(uint64(b>>5&1)<<23, j) // first or middle slot
		}
	}
	keys[0] = 0
	return keys
}()

// blockAddr maps a byte onto the pointer-like addresses, or 0.
func blockAddr(b byte) uint64 {
	if b == 0xff {
		return 0
	}
	return 0x1000 + 8*uint64(b&127)
}

// FuzzPtrTable drives a CFI's ptrTable against a map[uint64]uint64, three
// bytes a step: put, get, del, or one of CFI's block copy, move and
// invalidate over the pointer-like addresses. Every step's answer and the
// entry count are compared with the reference, and every key of the key
// space after each step that deleted, and every 16th.
func FuzzPtrTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0x80, 2, 0, 0x81, 3, 4, 0x80, 0, 3, 0, 0})          // key 0, two last-slot keys, delete one
	f.Add([]byte{0, 1, 1, 0, 2, 2, 0, 3, 3, 0xf5, 1, 0x40, 0xfe, 1, 0xff, 0, 0}) // puts, move, invalidate from 0
	seed := make([]byte, 0, 3*600)
	for i := 0; i < 600; i++ {
		seed = append(seed, byte(i*7%8|i*37%32<<3), byte(i*0x9b), byte(i*0x3d))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCFI()
		ref := make(map[uint64]uint64)
		for step := 0; len(data) >= 3; data, step = data[3:], step+1 {
			op, b1, b2 := data[0], data[1], data[2]
			k := fuzzKeys[b1]
			n := 8 * uint64(op>>3)
			switch op & 7 {
			case 0, 1, 2:
				v := uint64(b2)<<8 | uint64(op)
				c.table.put(k, v)
				ref[k] = v
			case 3:
				v, ok := c.table.get(k)
				if want, wantOK := ref[k]; v != want || ok != wantOK {
					t.Fatalf("step %d: get(%#x) = %#x,%t want %#x,%t", step, k, v, ok, want, wantOK)
				}
			case 4:
				_, want := ref[k]
				if got := c.table.del(k); got != want {
					t.Fatalf("step %d: del(%#x) = %t, want %t", step, k, got, want)
				}
				delete(ref, k)
			case 5, 6:
				move := op&7 == 6
				c.blockCopy(blockAddr(b1), blockAddr(b2), n, move)
				refBlockCopy(ref, blockAddr(b1), blockAddr(b2), n, move)
			default:
				c.blockInvalidate(blockAddr(b1), n)
				refBlockInvalidate(ref, blockAddr(b1), n)
			}
			if used := slotsUsed(c.table); used*4 > 3*len(c.table.ents) {
				t.Fatalf("step %d: %d entries in %d slots, past 3/4", step, used, len(c.table.ents))
			}
			if c.table.live != len(ref) {
				t.Fatalf("step %d: live = %d, want %d", step, c.table.live, len(ref))
			}
			if op&7 < 4 && step%16 != 0 {
				continue // a put or get moved nothing; the others are checked whole
			}
			for _, k := range fuzzKeys {
				v, ok := c.table.get(k)
				if want, wantOK := ref[k]; v != want || ok != wantOK {
					t.Fatalf("step %d (op %d): get(%#x) = %#x,%t want %#x,%t", step, op&7, k, v, ok, want, wantOK)
				}
			}
		}
		sameAsMap(t, c.table, ref, "end")
	})
}

// TestCFIBlockOpsOverDenseTable moves, copies and invalidates ranges of over
// a thousand pointers in a table at exactly 3/4 load whose last slot starts a
// cluster that wraps the array end. A block operation that deleted while it
// scanned would skip the entries a backward shift moves into slots the scan
// has passed.
func TestCFIBlockOpsOverDenseTable(t *testing.T) {
	const (
		slots  = 4096
		ptrs   = 3000
		wrap   = slots*3/4 - ptrs // keys homed on the last slot
		base   = 0x7f00_0000_0000
		target = 0x7f10_0000_0000
	)
	c := NewCFI()
	ref := make(map[uint64]uint64)
	define := func(a, v uint64) {
		c.Handle(msg(ipc.OpPointerDefine, a, v))
		ref[a] = v
	}
	for i := uint64(0); i < ptrs; i++ {
		define(base+8*i, i|1)
	}
	for j := uint64(0); j < wrap; j++ {
		define(homedKey(0xffffff, j), j)
	}
	if len(c.table.ents) != slots || c.table.ents[0].key == 0 || c.table.ents[slots-1].key == 0 {
		t.Fatalf("precondition: %d entries in %d slots, first slot %#x, last %#x: no cluster wraps the end",
			c.table.live, len(c.table.ents), c.table.ents[0].key, c.table.ents[slots-1].key)
	}
	sameAsMap(t, c.table, ref, "filled")

	steps := []struct {
		op       ipc.Op
		a1, a2   uint64
		n        uint64
		describe string
	}{
		{ipc.OpPointerBlockMove, base, target, 8 * 1500, "move 1500 pointers to a fresh range"},
		{ipc.OpPointerBlockInvalidate, base + 8*1500, 8 * 1200, 0, "invalidate 1200 pointers"},
		{ipc.OpPointerBlockCopy, target, target + 8*700, 8 * 1500, "copy 1500 pointers onto an overlapping range"},
		{ipc.OpPointerBlockMove, target, base, 8 * 2200, "move 2200 pointers back"},
		{ipc.OpPointerBlockInvalidate, base, 8 * 1100, 0, "invalidate 1100 pointers"},
	}
	for _, s := range steps {
		m := msg(s.op, s.a1, s.a2, s.n)
		if v := c.Handle(m); v != nil {
			t.Fatalf("%s: %v", s.describe, v)
		}
		switch s.op {
		case ipc.OpPointerBlockInvalidate:
			refBlockInvalidate(ref, s.a1, s.a2)
		default:
			refBlockCopy(ref, s.a1, s.a2, s.n, s.op == ipc.OpPointerBlockMove)
		}
		sameAsMap(t, c.table, ref, s.describe)
	}
	if len(c.table.ents) != slots {
		t.Errorf("block operations grew the table to %d slots", len(c.table.ents))
	}
}
