package policy

import (
	"math/bits"
	"slices"

	"herqules/internal/ipc"
)

// spanIndex is the ordered set of non-overlapping [base, base+size) address
// spans under both allocation policies (memsafety, temporal). It is a slice
// of sorted leaves of at most spanLeafCap spans each, so an insert or a
// delete shifts at most one leaf (64 × 24 bytes) where a single sorted slice
// shifted everything above the position — tens of kilobytes per allocation
// message at a few thousand spans. Depth is fixed at two: the leaf directory
// (with its dense array of leaf tops) is shifted only when a leaf splits or
// empties. That fits the thousands of spans these policies hold (temporal
// caps its tombstones); it is deliberately not a general B-tree.
//
// Invariants: no leaf is empty; tops[k] is the end of leaves[k]'s last span;
// spans are sorted by base within and across leaves; no two spans overlap;
// base+size never wraps (callers reject such spans, see wraps).
//
// Not safe for concurrent use — see ptrTable.
type spanIndex struct {
	leaves [][]span
	tops   []uint64 // per leaf, the end of its last span
	n      int      // spans over all leaves
}

// span is one interval. tag belongs to the policy on top: temporal packs
// generation and liveness into it, memsafety leaves it zero.
type span struct{ base, size, tag uint64 }

func (s *span) end() uint64 { return s.base + s.size }

// spanLeafCap bounds a leaf. A full leaf splits in half on insert.
const spanLeafCap = 64

// spanPos addresses one span: leaves[leaf][off]. The position one past the
// last span is {len(leaves), 0}.
type spanPos struct{ leaf, off int }

// wraps reports whether [base, base+size) runs past the top of the address
// space. Such a span would break the order every search relies on, and its
// arguments come from the monitored program, so both policies refuse it.
func wraps(base, size uint64) bool { return base+size < base }

// wrapViolation is the violation both policies answer a wrapping
// OpAllocCreate/OpAllocExtend with, before touching their index. A zero size
// counts as the one byte it is stored as.
func wrapViolation(m ipc.Message, base, size uint64) *Violation {
	if !wraps(base, max(size, 1)) {
		return nil
	}
	return &Violation{PID: m.PID, Op: m.Op, Addr: base, Value: size,
		Reason: "allocation wraps the address space"}
}

// seek returns the position of the first span that ends above addr — the one
// containing addr if any span does, otherwise the next one up.
//
// It is two lower bounds, over tops and then inside one leaf, that move
// their cursor by the borrow of addr - end: an if compiles to a conditional
// jump, mispredicted about every other step, and that — not the loads — was
// most of these policies' per-message cost.
func (x *spanIndex) seek(addr uint64) spanPos {
	tops := x.tops
	if len(tops) == 0 {
		return spanPos{}
	}
	k := 0
	for n := len(tops); n > 1; {
		half := n >> 1
		_, b := bits.Sub64(addr, tops[k+half], 0) // b = 1 iff that top is above addr
		k += half & int(b-1)
		n -= half
	}
	_, b := bits.Sub64(addr, tops[k], 0)
	if k += int(b ^ 1); k == len(tops) {
		return spanPos{leaf: k}
	}
	l := x.leaves[k]
	i := 0 // the leaf's last span ends above addr, so i stays inside it
	for n := len(l); n > 1; {
		half := n >> 1
		_, b := bits.Sub64(addr, l[i+half].end(), 0)
		i += half & int(b-1)
		n -= half
	}
	_, b = bits.Sub64(addr, l[i].end(), 0)
	return spanPos{k, i + int(b^1)}
}

// at returns the span at p, or nil when p is past the last span.
func (x *spanIndex) at(p spanPos) *span {
	if p.leaf == len(x.leaves) {
		return nil
	}
	return &x.leaves[p.leaf][p.off]
}

// find returns the span containing addr and its position, or nil.
func (x *spanIndex) find(addr uint64) (*span, spanPos) {
	p := x.seek(addr)
	if s := x.at(p); s != nil && s.base <= addr {
		return s, p
	}
	return nil, p
}

// insert places s at p, which must be seek(s.base) with nothing overlapping
// s at or after it.
func (x *spanIndex) insert(p spanPos, s span) {
	x.n++
	if len(x.leaves) == 0 {
		x.leaves, x.tops = [][]span{make([]span, 0, spanLeafCap)}, []uint64{0}
	} else if p.leaf == len(x.leaves) {
		p = spanPos{p.leaf - 1, len(x.leaves[p.leaf-1])}
	}
	l := x.leaves[p.leaf]
	if len(l) == spanLeafCap {
		const half = spanLeafCap / 2
		upper := append(make([]span, 0, spanLeafCap), l[half:]...)
		x.leaves = slices.Insert(x.leaves, p.leaf+1, upper)
		x.tops = slices.Insert(x.tops, p.leaf+1, x.tops[p.leaf])
		x.leaves[p.leaf], x.tops[p.leaf] = l[:half], l[half-1].end()
		if p.off > half {
			p.leaf, p.off = p.leaf+1, p.off-half
		}
		l = x.leaves[p.leaf]
	}
	l = append(l, span{})
	copy(l[p.off+1:], l[p.off:])
	l[p.off] = s
	x.leaves[p.leaf], x.tops[p.leaf] = l, l[len(l)-1].end()
}

// remove deletes the span at p, which leaves the directory if it empties, and
// returns the position of the span that followed it.
func (x *spanIndex) remove(p spanPos) spanPos {
	x.n--
	l := x.leaves[p.leaf]
	if len(l) == 1 {
		x.leaves = slices.Delete(x.leaves, p.leaf, p.leaf+1)
		x.tops = slices.Delete(x.tops, p.leaf, p.leaf+1)
		return spanPos{leaf: p.leaf}
	}
	l = append(l[:p.off], l[p.off+1:]...)
	x.leaves[p.leaf] = l
	if p.off == len(l) {
		x.tops[p.leaf] = l[p.off-1].end()
		return spanPos{leaf: p.leaf + 1}
	}
	return p
}

// each calls f on every span in address order. f may change a span's tag; it
// must not insert or remove.
func (x *spanIndex) each(f func(*span)) {
	for _, l := range x.leaves {
		for i := range l {
			f(&l[i])
		}
	}
}

// removeIf deletes every span f reports true for and returns how many went.
func (x *spanIndex) removeIf(f func(*span) bool) int {
	kept, tops, before := x.leaves[:0], x.tops[:0], x.n
	for _, l := range x.leaves {
		k := l[:0]
		for i := range l {
			if !f(&l[i]) {
				k = append(k, l[i])
			}
		}
		x.n -= len(l) - len(k)
		if len(k) > 0 {
			kept, tops = append(kept, k), append(tops, k[len(k)-1].end())
		}
	}
	clear(x.leaves[len(kept):]) // let dropped leaves be collected
	x.leaves, x.tops = kept, tops
	return before - x.n
}

// clone returns an independent deep copy.
func (x *spanIndex) clone() spanIndex {
	n := spanIndex{leaves: make([][]span, len(x.leaves)), tops: slices.Clone(x.tops), n: x.n}
	for i, l := range x.leaves {
		n.leaves[i] = append(make([]span, 0, spanLeafCap), l...)
	}
	return n
}
