package policy

import (
	"testing"

	"herqules/internal/ipc"
)

// exerciser drives one registered policy through its define/invalidate
// message vocabulary so the conformance suite below can make generic
// assertions. define must grow observable state for stateful policies;
// undefine must return Entries to its pre-define value for policies whose
// vocabulary has release semantics (reversible == true).
type exerciser struct {
	define     []ipc.Message
	undefine   []ipc.Message
	reversible bool
	stateful   bool // Entries grows under define
}

// exercisers must cover every registered policy: the conformance suite fails
// on any registry name without an entry, so adding a policy forces adding
// its conformance coverage.
var exercisers = map[string]exerciser{
	"cfi": {
		define:     []ipc.Message{msg(ipc.OpPointerDefine, 0x1000, 0x4000), msg(ipc.OpPointerDefine, 0x2000, 0x5000)},
		undefine:   []ipc.Message{msg(ipc.OpPointerInvalidate, 0x1000), msg(ipc.OpPointerInvalidate, 0x2000)},
		reversible: true,
		stateful:   true,
	},
	"memsafety": {
		define:     []ipc.Message{msg(ipc.OpAllocCreate, 0x1000, 64), msg(ipc.OpAllocCreate, 0x2000, 64)},
		undefine:   []ipc.Message{msg(ipc.OpAllocDestroy, 0x1000), msg(ipc.OpAllocDestroy, 0x2000)},
		reversible: true,
		stateful:   true,
	},
	"temporal": {
		define:     []ipc.Message{msg(ipc.OpAllocCreate, 0x1000, 64), msg(ipc.OpAllocCreate, 0x2000, 64)},
		undefine:   []ipc.Message{msg(ipc.OpAllocDestroy, 0x1000), msg(ipc.OpAllocDestroy, 0x2000)},
		reversible: true,
		stateful:   true,
	},
	"counter": {
		define:   []ipc.Message{msg(ipc.OpCounterInc, 1), msg(ipc.OpCounterInc, 2)},
		stateful: true, // counts are never released: undefine empty, irreversible
	},
	"dfi": {
		define:   []ipc.Message{msg(ipc.OpDFIDeclare, 7, 1), msg(ipc.OpDFISet, 0x1000, 1)},
		stateful: true, // last-writer records persist: no release vocabulary
	},
	"hmac": {
		// The sealer keeps no Entries state and checks nothing in Handle;
		// its conformance is covered by the fork-key and sealer tests.
	},
}

func TestConformanceEveryRegisteredPolicyCovered(t *testing.T) {
	for _, name := range Names() {
		if _, ok := exercisers[name]; !ok {
			t.Errorf("registered policy %q has no conformance exerciser; add one to conformance_test.go", name)
		}
	}
	for name := range exercisers {
		if _, err := New(name); err != nil {
			t.Errorf("exerciser for unregistered policy %q: %v", name, err)
		}
	}
}

func TestConformanceUnknownOpIgnored(t *testing.T) {
	// OpSyscall is handled by the verifier engine, never by policies; it
	// stands in for any op outside a policy's vocabulary. Handling it must
	// neither violate nor mutate observable state.
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			p, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range exercisers[name].define {
				p.Handle(m)
			}
			before := p.Entries()
			if v := p.Handle(msg(ipc.OpSyscall)); v != nil {
				t.Errorf("foreign op raised violation: %v", v)
			}
			if got := p.Entries(); got != before {
				t.Errorf("foreign op changed Entries: %d -> %d", before, got)
			}
		})
	}
}

// TestConformanceUndeclaredOpsAreIgnored holds every policy to its Ops list:
// the verifier stops offering a policy the ops it does not list, which is only
// sound if Handle would have ignored them — no violation, and no change that
// Entries or a clone can see. A policy listing nothing in particular (nil) is
// offered everything and is not constrained here.
func TestConformanceUndeclaredOpsAreIgnored(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			p, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			ops := p.Ops()
			if ops == nil {
				return
			}
			listed := map[ipc.Op]bool{}
			for _, op := range ops {
				if !op.Valid() {
					t.Errorf("Ops lists the undefined op %d", uint32(op))
				}
				listed[op] = true
			}
			for _, m := range exercisers[name].define {
				if !listed[m.Op] {
					t.Errorf("the exerciser's %v is not in Ops: the verifier would never deliver it", m.Op)
				}
				p.Handle(m)
			}
			// Arguments that hit the exerciser's state if the op were acted on.
			foreign := []ipc.Op{ipc.NumOps, 0xffffffff} // what a hostile frame can carry
			for op := ipc.Op(0); op < ipc.NumOps; op++ {
				if !listed[op] {
					foreign = append(foreign, op)
				}
			}
			for _, op := range foreign {
				before := p.Entries()
				if v := p.Handle(msg(op, 0x1000, 0x2000, 64)); v != nil {
					t.Errorf("%v is not in Ops but raised %v", op, v)
				}
				if got, clone := p.Entries(), p.Clone().Entries(); got != before || clone != before {
					t.Errorf("%v is not in Ops but changed Entries: %d -> %d (clone %d)", op, before, got, clone)
				}
			}
			// What the state answers to its own vocabulary is unchanged too.
			for _, m := range exercisers[name].undefine {
				if v := p.Handle(m); v != nil {
					t.Errorf("after the undeclared ops, %v of a defined entry: %v", m.Op, v)
				}
			}
		})
	}
}

func TestConformanceCloneStateIndependent(t *testing.T) {
	for _, name := range Names() {
		ex := exercisers[name]
		t.Run(name, func(t *testing.T) {
			p, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ex.define {
				if v := p.Handle(m); v != nil {
					t.Fatalf("define rejected: %v", v)
				}
			}
			parentEntries := p.Entries()
			if ex.stateful && parentEntries == 0 {
				t.Fatalf("stateful policy reports 0 entries after defines")
			}
			c := p.Clone()
			if got := c.Entries(); got != parentEntries {
				t.Fatalf("clone Entries = %d, parent = %d", got, parentEntries)
			}
			// Mutating the clone must not disturb the parent, and vice versa.
			for _, m := range ex.undefine {
				c.Handle(m)
			}
			for _, m := range ex.define {
				p.Handle(m) // re-defines / further churn on the parent
			}
			if ex.reversible {
				if got := c.Entries(); got != 0 {
					t.Errorf("clone Entries = %d after full undefine, want 0", got)
				}
				if got := p.Entries(); got != parentEntries {
					t.Errorf("parent Entries = %d after clone mutation, want %d", got, parentEntries)
				}
			}
		})
	}
}

func TestConformanceEntriesTracksChurn(t *testing.T) {
	for _, name := range Names() {
		ex := exercisers[name]
		if !ex.reversible {
			continue
		}
		t.Run(name, func(t *testing.T) {
			p, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			base := p.Entries()
			for round := 0; round < 3; round++ {
				for _, m := range ex.define {
					if v := p.Handle(m); v != nil {
						t.Fatalf("round %d define rejected: %v", round, v)
					}
				}
				if got := p.Entries(); got != base+len(ex.define) {
					t.Fatalf("round %d: Entries = %d after defines, want %d", round, got, base+len(ex.define))
				}
				for _, m := range ex.undefine {
					if v := p.Handle(m); v != nil {
						t.Fatalf("round %d undefine rejected: %v", round, v)
					}
				}
				if got := p.Entries(); got != base {
					t.Fatalf("round %d: Entries = %d after undefines, want %d", round, got, base)
				}
			}
		})
	}
}

// TestConformanceForkHooksCopyMACKeys drives every registered policy through
// the kernel's fork protocol — Program(parent), ProcessStarted(parent),
// Clone, Inherit(parent, child), ProcessForked on the clone — and asserts
// the lifecycle hooks are tolerated by all and that sealers end up able to
// authenticate under the parent's key on a fresh stream.
func TestConformanceForkHooksCopyMACKeys(t *testing.T) {
	const parent, child = int32(1), int32(2)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			kr := NewKeyringSeeded(42)
			p, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			if kb, ok := p.(KeyBinder); ok {
				kb.BindKeyring(kr)
			}
			kr.Program(parent)
			p.ProcessStarted(parent)
			c := p.Clone()
			kr.Inherit(parent, child) // the kernel copies the key at fork
			c.ProcessForked(parent, child)

			sl, ok := c.(Sealer)
			if !ok {
				return
			}
			key, ok := kr.Key(child)
			if !ok {
				t.Fatal("keyring lost the inherited key")
			}
			if pk, _ := kr.Key(parent); pk != key {
				t.Fatal("inherited key differs from parent's")
			}
			// The forked child's stream restarts at 1 under the copied key.
			run := []ipc.Message{{Op: ipc.OpCounterInc, PID: child, Arg1: 1, Seq: 1}}
			run[0].Mac = ipc.MacSeal(key, run[0], 1)
			if n, v := sl.UnsealRun(run); v != nil || n != 1 {
				t.Fatalf("child sealer rejected message under inherited key: n=%d %v", n, v)
			}
			if run[0].Mac != 0 {
				t.Errorf("UnsealRun did not strip the envelope: mac=%#x", run[0].Mac)
			}
		})
	}
}

func TestRegistryUnknownNameErrors(t *testing.T) {
	if _, err := New("no-such-policy"); err == nil {
		t.Error("New(unknown) returned no error")
	}
	if _, err := NewSet("cfi", "no-such-policy"); err == nil {
		t.Error("NewSet with unknown name returned no error")
	}
	if _, err := SetFactory("no-such-policy"); err == nil {
		t.Error("SetFactory with unknown name returned no error")
	}
}

func TestRegistryDefaultSetResolves(t *testing.T) {
	ps := MustSet(DefaultSet...)
	if len(ps) != len(DefaultSet) {
		t.Fatalf("default set resolved to %d policies, want %d", len(ps), len(DefaultSet))
	}
	for i, p := range ps {
		if p.Name() != DefaultSet[i] {
			t.Errorf("policy %d Name = %q, want %q (registry key must equal Name())", i, p.Name(), DefaultSet[i])
		}
	}
}
