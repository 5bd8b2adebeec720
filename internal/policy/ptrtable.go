package policy

import "math/bits"

// ptrTable is a flat open-addressing hash table specialized for the hottest
// metadata structure in the verifier: the CFI policy's pointer-address →
// expected-value map (the 16-byte entries of §5.4). Every HQ-CFI message is
// one operation on this table, so its cost brackets the whole verify side of
// the hot path. A generic Go map pays a hashing call, group-probing machinery
// and — on every delete — a runtime reseeding draw per operation; this table
// is one multiply-shift hash, a linear probe over 16-byte slots, and nothing
// else, with deletes that un-tombstone themselves when their probe chain ends
// (the define/invalidate churn of the CFI workload would otherwise fill the
// table with tombstones and force rehashes at a steady state size).
//
// Not safe for concurrent use — policy state is confined to one verifier
// shard, which serializes access per process (verifier shard lock).
type ptrTable struct {
	ctrl  []uint8    // one of ptrSlotEmpty / ptrSlotFull / ptrSlotDead per slot
	ents  []ptrEntry // key/value pairs, valid where ctrl is ptrSlotFull
	live  int        // full slots
	used  int        // full + tombstoned slots (probe-chain occupancy)
	mask  uint64     // len(ctrl)-1; capacity is always a power of two
	shift uint       // 64 - log2(len(ctrl)), for the multiply-shift hash
}

type ptrEntry struct{ key, val uint64 }

const (
	ptrSlotEmpty uint8 = iota
	ptrSlotFull
	ptrSlotDead // tombstone: probe chains continue through it
)

// minPtrTableCap keeps even tiny tables power-of-two sized with probe slack.
const minPtrTableCap = 16

func newPtrTable() *ptrTable {
	t := &ptrTable{}
	t.reset(minPtrTableCap)
	return t
}

// reset reinitializes the table to an empty power-of-two capacity.
func (t *ptrTable) reset(capacity int) {
	t.ctrl = make([]uint8, capacity)
	t.ents = make([]ptrEntry, capacity)
	t.live, t.used = 0, 0
	t.mask = uint64(capacity - 1)
	t.shift = uint(64 - bits.TrailingZeros(uint(capacity)))
}

// slot is the Fibonacci multiply-shift hash: the high bits of key*φ⁻¹ spread
// both dense (stack addresses stepping by 8) and sparse keys uniformly.
func (t *ptrTable) slot(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> t.shift
}

// get returns the value stored for key.
func (t *ptrTable) get(key uint64) (uint64, bool) {
	i := t.slot(key)
	for {
		switch t.ctrl[i] {
		case ptrSlotEmpty:
			return 0, false
		case ptrSlotFull:
			if t.ents[i].key == key {
				return t.ents[i].val, true
			}
		}
		i = (i + 1) & t.mask
	}
}

// touchMinCap is the capacity from which a look-ahead touch pays: 1<<16 slots
// are 1 MiB of entries plus 64 KiB of control bytes, past what a core keeps
// to itself. Below it lookups hit cache anyway and the pass is pure overhead.
const touchMinCap = 1 << 16

// worthTouching reports whether the table has outgrown the cache.
func (t *ptrTable) worthTouching() bool { return len(t.ctrl) >= touchMinCap }

// touch loads the two cache lines a lookup of key starts on (its control byte
// and its entry) and returns a value that depends on both, for the caller to
// keep so the loads are not optimized away. It decides nothing: a caller
// running it over a window of upcoming keys gives the core independent misses
// to overlap, where the lookups themselves would take them one after another
// (group prefetching, Chen et al., ICDE 2004 — with plain loads, because Go
// exposes no prefetch instruction).
func (t *ptrTable) touch(key uint64) uint64 {
	i := t.slot(key)
	return uint64(t.ctrl[i]) + t.ents[i].key
}

// put inserts or updates key. Tombstones left on key's probe chain are
// reused, so a define/invalidate cycle of one address occupies one slot
// forever instead of leaking chain occupancy.
func (t *ptrTable) put(key, val uint64) {
	if t.used*4 >= len(t.ctrl)*3 {
		t.rehash()
	}
	i := t.slot(key)
	ins := -1
	for {
		switch t.ctrl[i] {
		case ptrSlotEmpty:
			if ins < 0 {
				ins = int(i)
				t.used++ // consuming a fresh slot, not a reclaimed tombstone
			}
			t.ctrl[ins] = ptrSlotFull
			t.ents[ins] = ptrEntry{key: key, val: val}
			t.live++
			return
		case ptrSlotDead:
			if ins < 0 {
				ins = int(i)
			}
		case ptrSlotFull:
			if t.ents[i].key == key {
				t.ents[i].val = val
				return
			}
		}
		i = (i + 1) & t.mask
	}
}

// del removes key, reporting whether it was present. When the deleted slot
// ends its probe chain (the next slot is empty), the tombstone — and any run
// of tombstones immediately before it — collapses back to empty, keeping
// chain occupancy proportional to live entries under churn.
func (t *ptrTable) del(key uint64) bool {
	i := t.slot(key)
	for {
		switch t.ctrl[i] {
		case ptrSlotEmpty:
			return false
		case ptrSlotFull:
			if t.ents[i].key == key {
				t.ctrl[i] = ptrSlotDead
				t.ents[i] = ptrEntry{}
				t.live--
				if t.ctrl[(i+1)&t.mask] == ptrSlotEmpty {
					for t.ctrl[i] == ptrSlotDead {
						t.ctrl[i] = ptrSlotEmpty
						t.used--
						i = (i - 1) & t.mask
					}
				}
				return true
			}
		}
		i = (i + 1) & t.mask
	}
}

// rehash rebuilds the table sized so live entries sit at ≤ 50% load,
// dropping every tombstone. Triggered by put when chain occupancy (full +
// tombstones) passes 75%.
func (t *ptrTable) rehash() {
	newCap := len(t.ctrl)
	for t.live*2 >= newCap {
		newCap *= 2
	}
	oldCtrl, oldEnts := t.ctrl, t.ents
	t.reset(newCap)
	for i, c := range oldCtrl {
		if c == ptrSlotFull {
			t.put(oldEnts[i].key, oldEnts[i].val)
		}
	}
}

// each calls f for every live entry. f must not insert (the table may
// rehash); deleting any key through del is safe, because entries never move
// outside rehash.
func (t *ptrTable) each(f func(key, val uint64)) {
	for i, c := range t.ctrl {
		if c == ptrSlotFull {
			f(t.ents[i].key, t.ents[i].val)
		}
	}
}
