package policy

import (
	"fmt"

	"herqules/internal/ipc"
)

// LoaderWriter is the writer identity of pre-execution initialization (the
// loader populating globals, or a never-written location). It is implicitly
// a member of every writer set, so reads of initialized-but-unwritten data
// never false-positive.
const LoaderWriter = 0

// DFI is the data-flow integrity policy of §4.3 (after Castro, Costa and
// Harris, OSDI '06): the compiler assigns every store instruction an
// identity, computes for each checked load the set of stores that may
// legitimately produce its value, and instruments stores to announce
// themselves and loads to be checked. A load whose address was last written
// by a store outside its set — a buffer overflow clobbering a neighbouring
// variable, say — is a violation even when the corrupted value is pure data
// that control-flow integrity would never examine.
type DFI struct {
	Hooks
	// sets maps set id -> allowed writer ids.
	sets map[uint64]map[uint64]bool
	// last maps address -> the id of its most recent writer, in the same
	// flat table as cfi's pointers (ptrtable.go): one entry per written
	// address, so it grows with the program. An absent address reads as
	// LoaderWriter.
	last       *ptrTable
	maxEntries int
	touched    uint64 // Prefetch's load sink
}

// NewDFI creates an empty data-flow-integrity context.
func NewDFI() *DFI {
	return &DFI{
		sets: make(map[uint64]map[uint64]bool),
		last: newPtrTable(),
	}
}

// Name implements Policy.
func (d *DFI) Name() string { return "dfi" }

// Entries implements Policy.
func (d *DFI) Entries() int { return d.last.live }

// MaxEntries reports the high-water mark of tracked addresses.
func (d *DFI) MaxEntries() int { return d.maxEntries }

// Clone implements Policy.
func (d *DFI) Clone() Policy {
	n := NewDFI()
	for id, set := range d.sets {
		ns := make(map[uint64]bool, len(set))
		for w := range set {
			ns[w] = true
		}
		n.sets[id] = ns
	}
	d.last.each(n.last.put)
	n.maxEntries = d.maxEntries
	return n
}

// Ops implements Policy.
func (d *DFI) Ops() []ipc.Op { return []ipc.Op{ipc.OpDFIDeclare, ipc.OpDFISet, ipc.OpDFICheck} }

// Handle implements Policy.
func (d *DFI) Handle(m ipc.Message) *Violation { return d.handle(&m) }

// HandleRun implements Policy.
func (d *DFI) HandleRun(ms []ipc.Message) (int, *Violation) {
	for i := range ms {
		if v := d.handle(&ms[i]); v != nil {
			return i, v
		}
	}
	return len(ms), nil
}

func (d *DFI) handle(m *ipc.Message) *Violation {
	switch m.Op {
	case ipc.OpDFIDeclare:
		set, ok := d.sets[m.Arg1]
		if !ok {
			set = map[uint64]bool{LoaderWriter: true}
			d.sets[m.Arg1] = set
		}
		set[m.Arg2] = true
	case ipc.OpDFISet:
		d.last.put(m.Arg1, m.Arg2)
		if d.last.live > d.maxEntries {
			d.maxEntries = d.last.live
		}
	case ipc.OpDFICheck:
		set, ok := d.sets[m.Arg2]
		if !ok {
			return &Violation{PID: m.PID, Op: m.Op, Addr: m.Arg1, Value: m.Arg2,
				Reason: "dfi: check against undeclared writer set"}
		}
		writer, _ := d.last.get(m.Arg1) // missing -> LoaderWriter
		if !set[writer] {
			return &Violation{PID: m.PID, Op: m.Op, Addr: m.Arg1, Value: writer,
				Reason: fmt.Sprintf("dfi: address %#x last written by store #%d, outside its reaching set", m.Arg1, writer)}
		}
	}
	return nil
}

// Prefetch implements Prefetcher: the set/check messages in ms are about to
// look their address up in last.
func (d *DFI) Prefetch(ms []ipc.Message) {
	if !d.last.worthTouching() {
		return
	}
	var acc uint64
	for i := range ms {
		if op := ms[i].Op; op == ipc.OpDFISet || op == ipc.OpDFICheck {
			acc += d.last.touch(ms[i].Arg1)
		}
	}
	d.touched = acc
}

var _ Prefetcher = (*DFI)(nil)
