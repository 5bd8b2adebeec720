package policy

import (
	"testing"

	"herqules/internal/ipc"
)

func TestDFIDeclareSetAndCheck(t *testing.T) {
	d := NewDFI()
	// Set 1 allows writers 5 and 9 (and the loader, implicitly).
	d.Handle(msg(ipc.OpDFIDeclare, 1, 5))
	d.Handle(msg(ipc.OpDFIDeclare, 1, 9))

	// Unwritten address: loader is a legitimate writer.
	if v := d.Handle(msg(ipc.OpDFICheck, 0x1000, 1)); v != nil {
		t.Errorf("loader-initialized read flagged: %v", v)
	}
	// Legitimate store then check.
	d.Handle(msg(ipc.OpDFISet, 0x1000, 5))
	if v := d.Handle(msg(ipc.OpDFICheck, 0x1000, 1)); v != nil {
		t.Errorf("in-set writer flagged: %v", v)
	}
	// Rogue store (an overflow from elsewhere) then check.
	d.Handle(msg(ipc.OpDFISet, 0x1000, 77))
	if v := d.Handle(msg(ipc.OpDFICheck, 0x1000, 1)); v == nil {
		t.Error("out-of-set writer passed")
	}
	if w, _ := d.last.get(0x1000); w != 77 {
		t.Errorf("last writer = %d", w)
	}
}

func TestDFIUndeclaredSetIsViolation(t *testing.T) {
	d := NewDFI()
	if v := d.Handle(msg(ipc.OpDFICheck, 0x1000, 42)); v == nil {
		t.Error("check against undeclared set passed")
	}
}

func TestDFIEntriesAndClone(t *testing.T) {
	d := NewDFI()
	d.Handle(msg(ipc.OpDFIDeclare, 1, 5))
	for i := uint64(0); i < 8; i++ {
		d.Handle(msg(ipc.OpDFISet, 0x1000+8*i, 5))
	}
	if d.Entries() != 8 || d.MaxEntries() != 8 {
		t.Errorf("entries = %d/%d", d.Entries(), d.MaxEntries())
	}
	cl := d.Clone().(*DFI)
	cl.Handle(msg(ipc.OpDFISet, 0x1000, 99))
	if w, _ := d.last.get(0x1000); w == 99 {
		t.Error("clone shares writer state")
	}
	if v := cl.Handle(msg(ipc.OpDFICheck, 0x1008, 1)); v != nil {
		t.Errorf("cloned set lost membership: %v", v)
	}
}

func TestDFIIgnoresForeignOps(t *testing.T) {
	d := NewDFI()
	for _, op := range []ipc.Op{ipc.OpPointerDefine, ipc.OpSyscall, ipc.OpAllocCreate} {
		if v := d.Handle(msg(op, 1, 2)); v != nil {
			t.Errorf("DFI reacted to %v", op)
		}
	}
}
