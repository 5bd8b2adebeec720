package policy

import "math/bits"

// ptrTable is a flat open-addressing hash table specialized for the hottest
// metadata structure in the verifier: the CFI policy's pointer-address →
// expected-value map (the 16-byte entries of §5.4). Every HQ-CFI message is
// one operation on this table, so its cost brackets the whole verify side of
// the hot path. A generic Go map pays a hashing call, group-probing machinery
// and — on every delete — a runtime reseeding draw per operation; this table
// is one multiply-shift hash and a linear probe over 16-byte slots, and
// nothing else: no control bytes (key 0 marks an empty slot) and no
// tombstones (a delete shifts the rest of its cluster back), so the slot
// array is the whole table and its size follows the live entries alone.
//
// Not safe for concurrent use — policy state is confined to one verifier
// process context, whose lock serializes access.
type ptrTable struct {
	ents  []ptrEntry // key 0 marks an empty slot
	live  int        // entries, the zero key's included
	mask  uint64     // len(ents)-1; capacity is always a power of two
	shift uint       // 64 - log2(len(ents)), for the multiply-shift hash
	// The real key 0 cannot sit in ents, so it sits here.
	hasZero bool
	zeroVal uint64
}

type ptrEntry struct{ key, val uint64 }

// minPtrTableCap keeps even tiny tables power-of-two sized with probe slack.
const minPtrTableCap = 16

func newPtrTable() *ptrTable {
	t := &ptrTable{}
	t.grow()
	return t
}

// slot is the Fibonacci multiply-shift hash: the high bits of key*φ⁻¹ spread
// both dense (stack addresses stepping by 8) and sparse keys uniformly. shift
// is below 64, so the mask changes nothing but spares the compiler's branch-
// free fix-up for a shift of 64 or more.
func (t *ptrTable) slot(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> (t.shift & 63)
}

// get returns the value stored for key.
func (t *ptrTable) get(key uint64) (uint64, bool) {
	if key == 0 {
		return t.zeroVal, t.hasZero
	}
	for i := t.slot(key); t.ents[i].key != 0; i = (i + 1) & t.mask {
		if t.ents[i].key == key {
			return t.ents[i].val, true
		}
	}
	return 0, false
}

// touchMinCap is the capacity from which a look-ahead touch pays: 1<<16 slots
// are 1 MiB of entries, past what a core keeps to itself. Below it lookups
// hit cache anyway and the pass is pure overhead.
const touchMinCap = 1 << 16

// worthTouching reports whether the table has outgrown the cache.
func (t *ptrTable) worthTouching() bool { return len(t.ents) >= touchMinCap }

// touch loads the cache line of key's home slot and the line after it — at
// 3/4 load a probe often runs into the next line — and returns a value that
// depends on both, for the caller to keep so the loads are not optimized
// away. It decides nothing: a caller running it over a window of upcoming
// keys gives the core independent misses to overlap, where the lookups
// themselves would take them one after another (group prefetching, Chen et
// al., ICDE 2004 — with plain loads, because Go exposes no prefetch
// instruction).
func (t *ptrTable) touch(key uint64) uint64 {
	i := t.slot(key)
	return t.ents[i].key + t.ents[(i+4)&t.mask].key // four slots a line
}

// put inserts or updates key. Only an insert can grow the table, and only
// when the new entry would fill more than 3/4 of the slots: updates and
// define/invalidate churn of a bounded working set never rehash.
func (t *ptrTable) put(key, val uint64) {
	if key == 0 {
		if !t.hasZero {
			t.hasZero = true
			t.live++
		}
		t.zeroVal = val
		return
	}
	i := t.slot(key)
	for ; t.ents[i].key != 0; i = (i + 1) & t.mask {
		if t.ents[i].key == key {
			t.ents[i].val = val
			return
		}
	}
	if (t.live+1)*4 > 3*len(t.ents) {
		t.grow()
		t.put(key, val) // absent, and now with room
		return
	}
	t.ents[i] = ptrEntry{key: key, val: val}
	t.live++
}

// del removes key, reporting whether it was present. The hole it leaves is
// filled by a backward shift (Knuth's Algorithm R): walking the cluster after
// the hole, every entry whose home slot does not lie cyclically in (hole, j]
// moves back into the hole, and its slot becomes the hole. Every probe chain
// then ends where it would had the key never been inserted.
func (t *ptrTable) del(key uint64) bool {
	if key == 0 {
		if !t.hasZero {
			return false
		}
		t.hasZero, t.zeroVal = false, 0
		t.live--
		return true
	}
	i := t.slot(key)
	for ; t.ents[i].key != key; i = (i + 1) & t.mask {
		if t.ents[i].key == 0 {
			return false
		}
	}
	for j := (i + 1) & t.mask; t.ents[j].key != 0; j = (j + 1) & t.mask {
		if home := t.slot(t.ents[j].key); (j-home)&t.mask >= (j-i)&t.mask {
			t.ents[i] = t.ents[j]
			i = j
		}
	}
	t.ents[i] = ptrEntry{}
	t.live--
	return true
}

// grow doubles the capacity (an empty table gets minPtrTableCap slots) and
// re-places every entry of ents; the count, which the zero key is part of,
// is the one from before.
func (t *ptrTable) grow() {
	old, live, capacity := t.ents, t.live, max(2*len(t.ents), minPtrTableCap)
	t.ents, t.live = make([]ptrEntry, capacity), 0
	t.mask, t.shift = uint64(capacity-1), uint(64-bits.TrailingZeros(uint(capacity)))
	for _, e := range old {
		if e.key != 0 {
			t.put(e.key, e.val)
		}
	}
	t.live = live
}

// each calls f for every live entry. f must not change the table: an insert
// may grow it, and a delete shifts entries back, so the scan would miss some
// and meet others twice. A caller that deletes what it finds collects the
// keys first.
func (t *ptrTable) each(f func(key, val uint64)) {
	if t.hasZero {
		f(0, t.zeroVal)
	}
	for _, e := range t.ents {
		if e.key != 0 {
			f(e.key, e.val)
		}
	}
}
