package policy

import (
	"math/bits"

	"herqules/internal/ipc"
)

// CFI is the pointer-integrity control-flow-integrity policy (§4.1.2): the
// verifier keeps an authoritative copy of every writable control-flow
// pointer, keyed by its address. A Pointer-Check that disagrees with the
// stored copy — or that refers to a pointer that was never defined or was
// invalidated — is a violation. Tracking pointer lifetime is what lets
// HQ-CFI detect use-after-free on control-flow pointers, which no prior CFI
// design supports (Table 3).
type CFI struct {
	Hooks
	// table maps pointer address -> expected pointer value. Each entry is
	// the verifier-side 16-byte pointer-value pair of §5.4, held in a flat
	// open-addressing table because every HQ-CFI message lands here — see
	// ptrtable.go for why a generic map is too slow for this hot path.
	table *ptrTable
	// maxEntries tracks the high-water mark for the §5.4 metrics.
	maxEntries int
	touched    uint64 // Prefetch's load sink
}

// NewCFI creates an empty pointer-integrity context.
func NewCFI() *CFI {
	return &CFI{table: newPtrTable()}
}

// Name implements Policy.
func (c *CFI) Name() string { return "cfi" }

// Entries implements Policy.
func (c *CFI) Entries() int { return c.table.live }

// MaxEntries reports the table's high-water mark.
func (c *CFI) MaxEntries() int { return c.maxEntries }

// Clone implements Policy.
func (c *CFI) Clone() Policy {
	n := NewCFI()
	c.table.each(n.table.put)
	n.maxEntries = c.maxEntries
	return n
}

// Ops implements Policy: the pointer-integrity message set.
func (c *CFI) Ops() []ipc.Op {
	return []ipc.Op{ipc.OpPointerDefine, ipc.OpPointerCheck, ipc.OpPointerInvalidate, ipc.OpPointerCheckInvalidate,
		ipc.OpPointerBlockCopy, ipc.OpPointerBlockMove, ipc.OpPointerBlockInvalidate}
}

// Handle implements Policy.
func (c *CFI) Handle(m ipc.Message) *Violation { return c.handle(&m) }

// HandleRun implements Policy. A define or a check of a non-zero key is one
// probe, for the slot holding the key or the empty slot it would take, and
// one store of {key, Arg2} there: a define's new value, or the value a check
// has just matched. Which of the two it is only selects masks, so a run that
// mixes them pays no mispredicted branch per op, which was half of a CFI op's
// cost on a random mix. Everything else goes through handle: the other ops,
// key 0, a define that would grow the table, a check that fails, which
// handle turns into its Violation, and every op on a table past the cache
// (worthTouching), where the probe's miss hides the branch and a check's
// store would dirty a line that a load alone leaves clean.
func (c *CFI) HandleRun(ms []ipc.Message) (int, *Violation) {
	for i := c.probeRun(ms); i < len(ms); i += 1 + c.probeRun(ms[i+1:]) {
		if v := c.handle(&ms[i]); v != nil {
			return i, v
		}
	}
	return len(ms), nil
}

// probeRun takes the longest prefix of ms that the one-probe path can take
// and returns its length. It calls nothing, so the loop keeps its state in
// registers.
func (c *CFI) probeRun(ms []ipc.Message) int {
	t := c.table
	if t.worthTouching() {
		return 0
	}
	n, live, peak := len(ms), t.live, c.maxEntries
	for i := range ms {
		m := &ms[i]
		check := uint64(m.Op - ipc.OpPointerDefine)
		if check > 1 || m.Arg1 == 0 {
			n = i
			break
		}
		key := m.Arg1
		j := t.slot(key)
		for k := t.ents[j].key; nonzero(k^key)&nonzero(k) != 0; k = t.ents[j].key {
			j = (j + 1) & t.mask
		}
		e := &t.ents[j]
		absent := nonzero(e.key) ^ 1
		_, full := bits.Sub64(uint64(3*len(t.ents)), uint64(4*(live+1)), 0)
		// A check fails on an absent key or another value; a define of an
		// absent key into a table at 3/4 load grows it.
		if check&(absent|nonzero(e.val^m.Arg2))|(check^1)&absent&full != 0 {
			n = i
			break
		}
		*e = ptrEntry{key, m.Arg2}
		live += int(absent)
		peak = max(peak, live)
	}
	t.live, c.maxEntries = live, peak
	return n
}

// nonzero is 1 if x is not 0, else 0, from the borrow of 0 - x: no branch.
func nonzero(x uint64) uint64 {
	_, b := bits.Sub64(0, x, 0)
	return b
}

// handle dispatches the §4.1.3/§4.1.5 message set.
func (c *CFI) handle(m *ipc.Message) *Violation {
	switch m.Op {
	case ipc.OpPointerDefine:
		c.define(m.Arg1, m.Arg2)
	case ipc.OpPointerCheck:
		return c.check(m, false)
	case ipc.OpPointerCheckInvalidate:
		return c.check(m, true)
	case ipc.OpPointerInvalidate:
		c.table.del(m.Arg1)
	case ipc.OpPointerBlockCopy:
		c.blockCopy(m.Arg1, m.Arg2, m.Arg3, false)
	case ipc.OpPointerBlockMove:
		c.blockCopy(m.Arg1, m.Arg2, m.Arg3, true)
	case ipc.OpPointerBlockInvalidate:
		c.blockInvalidate(m.Arg1, m.Arg2)
	}
	return nil
}

// Prefetch implements Prefetcher: the single-pointer messages in ms are about
// to look their address up in table. Block operations scan the whole table
// and gain nothing from a touch.
func (c *CFI) Prefetch(ms []ipc.Message) {
	if !c.table.worthTouching() {
		return
	}
	var acc uint64
	for i := range ms {
		if op := ms[i].Op; op >= ipc.OpPointerDefine && op <= ipc.OpPointerCheckInvalidate {
			acc += c.table.touch(ms[i].Arg1)
		}
	}
	c.touched = acc
}

func (c *CFI) define(addr, val uint64) {
	c.table.put(addr, val)
	if c.table.live > c.maxEntries {
		c.maxEntries = c.table.live
	}
}

func (c *CFI) check(m *ipc.Message, invalidate bool) *Violation {
	stored, ok := c.table.get(m.Arg1)
	if !ok {
		return &Violation{
			PID: m.PID, Op: m.Op, Addr: m.Arg1, Value: m.Arg2,
			Reason: "pointer not defined: corrupt or use-after-free",
		}
	}
	if stored != m.Arg2 {
		return &Violation{
			PID: m.PID, Op: m.Op, Addr: m.Arg1, Value: m.Arg2,
			Reason: "pointer value mismatch: corrupt",
		}
	}
	if invalidate {
		c.table.del(m.Arg1)
	}
	return nil
}

// blockCopy implements Pointer-Block-Copy/-Move: all tracked pointers in
// [src, src+n) are transplanted to the same offsets in [dst, dst+n). The
// ranges of a copy may intersect (memmove semantics), so matching entries
// are gathered before the destination range is cleared. A move additionally
// removes the source entries.
func (c *CFI) blockCopy(src, dst, n uint64, move bool) {
	found := c.inRange(src, n)
	if move {
		for _, e := range found {
			c.table.del(e.key)
		}
	}
	// Pre-existing destination pointers are invalidated.
	c.blockInvalidate(dst, n)
	for _, e := range found {
		c.define(dst+(e.key-src), e.val)
	}
}

func (c *CFI) blockInvalidate(addr, n uint64) {
	for _, e := range c.inRange(addr, n) {
		c.table.del(e.key)
	}
}

// inRange returns the entries in [addr, addr+n). The block operations
// collect with it before they delete: a delete moves entries (ptrTable.each).
func (c *CFI) inRange(addr, n uint64) []ptrEntry {
	var found []ptrEntry
	c.table.each(func(a, v uint64) {
		if a >= addr && a-addr < n {
			found = append(found, ptrEntry{a, v})
		}
	})
	return found
}

var _ Prefetcher = (*CFI)(nil)
