package policy

import "herqules/internal/ipc"

// spanIndex is the ordered set of non-overlapping [base, base+size) address
// spans under both allocation policies (memsafety, temporal). It is a slice
// of sorted leaves of at most spanLeafCap spans each, so an insert or a
// delete shifts at most one leaf (64 × 24 bytes) where a single sorted slice
// shifted everything above the position — tens of kilobytes per allocation
// message at a few thousand spans. Depth is fixed at two: the leaf directory
// is itself one slice, shifted only when a leaf splits or empties. That fits
// the thousands of spans these policies hold (temporal caps its tombstones);
// it is deliberately not a general B-tree.
//
// Invariants: no leaf is empty; spans are sorted by base within and across
// leaves; no two spans overlap; base+size never wraps (callers reject such
// spans before they get here, see wraps).
//
// Not safe for concurrent use — see ptrTable.
type spanIndex struct {
	leaves [][]span
	n      int // spans over all leaves
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
func (x *spanIndex) seek(addr uint64) spanPos {
	// Both searches are written out: this is the allocation policies' whole
	// per-message cost, and sort.Search calls its predicate through a closure.
	lo, hi := 0, len(x.leaves)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l := x.leaves[mid]; l[len(l)-1].end() > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(x.leaves) {
		return spanPos{leaf: lo}
	}
	l := x.leaves[lo]
	i, j := 0, len(l)-1 // the leaf's last span ends above addr
	for i < j {
		mid := int(uint(i+j) >> 1)
		if l[mid].end() > addr {
			j = mid
		} else {
			i = mid + 1
		}
	}
	return spanPos{lo, i}
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
	if p.leaf == len(x.leaves) {
		if p.leaf == 0 {
			x.leaves = append(x.leaves, append(make([]span, 0, spanLeafCap), s))
			return
		}
		p.leaf--
		p.off = len(x.leaves[p.leaf])
	}
	l := x.leaves[p.leaf]
	if len(l) == spanLeafCap {
		const half = spanLeafCap / 2
		upper := append(make([]span, 0, spanLeafCap), l[half:]...)
		x.leaves = append(x.leaves, nil)
		copy(x.leaves[p.leaf+2:], x.leaves[p.leaf+1:])
		x.leaves[p.leaf], x.leaves[p.leaf+1] = l[:half], upper
		if p.off > half {
			p.leaf, p.off = p.leaf+1, p.off-half
		}
		l = x.leaves[p.leaf]
	}
	l = append(l, span{})
	copy(l[p.off+1:], l[p.off:])
	l[p.off] = s
	x.leaves[p.leaf] = l
}

// remove deletes the span at p; a leaf that empties leaves the directory.
func (x *spanIndex) remove(p spanPos) {
	x.n--
	l := x.leaves[p.leaf]
	if len(l) == 1 {
		x.leaves = append(x.leaves[:p.leaf], x.leaves[p.leaf+1:]...)
		return
	}
	x.leaves[p.leaf] = append(l[:p.off], l[p.off+1:]...)
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
	kept, before := x.leaves[:0], x.n
	for _, l := range x.leaves {
		k := l[:0]
		for i := range l {
			if !f(&l[i]) {
				k = append(k, l[i])
			}
		}
		x.n -= len(l) - len(k)
		if len(k) > 0 {
			kept = append(kept, k)
		}
	}
	for i := len(kept); i < len(x.leaves); i++ {
		x.leaves[i] = nil // let dropped leaves be collected
	}
	x.leaves = kept
	return before - x.n
}

// clone returns an independent deep copy.
func (x *spanIndex) clone() spanIndex {
	n := spanIndex{leaves: make([][]span, len(x.leaves)), n: x.n}
	for i, l := range x.leaves {
		n.leaves[i] = append(make([]span, 0, spanLeafCap), l...)
	}
	return n
}
