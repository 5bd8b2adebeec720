package herqules

import (
	"testing"
)

// buildAPIVictim uses only the public facade.
func buildAPIVictim(t *testing.T) *Module {
	t.Helper()
	mod := NewModule("api-victim")
	b := NewBuilder(mod)
	sig := FuncTypeOf(I64Type, I64Type)

	b.Func("attacker", sig, "x") // function #0: payload
	b.Syscall(SysExit, ConstInt(99))
	b.Ret(ConstInt(0))

	legit := b.Func("legit", sig, "x")
	b.Ret(b.Add(legit.Params[0], ConstInt(1)))

	b.Func("main", FuncTypeOf(I64Type))
	slot := b.Cast(b.Malloc(ConstInt(16)), PtrType(PtrType(sig)))
	b.Store(b.FuncAddr(legit), slot)
	// Corrupt through an integer alias, as an overflow would.
	b.Store(ConstInt(StaticFuncAddr(0)), b.Cast(slot, PtrType(I64Type)))
	fp := b.Load(slot)
	r := b.ICall(fp, sig, ConstInt(41))
	b.Syscall(SysWrite, r)
	b.Syscall(SysExit, ConstInt(0))
	b.Ret(ConstInt(0))
	mod.Finalize()
	if err := Validate(mod); err != nil {
		t.Fatal(err)
	}
	return mod
}

func TestPublicAPIEndToEnd(t *testing.T) {
	mod := buildAPIVictim(t)
	for _, tc := range []struct {
		design Design
		killed bool
	}{
		{Baseline, false},
		{HQSfeStk, true},
		{HQRetPtr, true},
	} {
		ins, err := Instrument(mod, tc.design, DefaultOptions())
		if err != nil {
			t.Fatalf("%v: %v", tc.design, err)
		}
		out, err := Run(ins, RunOptions{KillOnViolation: true})
		if err != nil {
			t.Fatalf("%v: %v", tc.design, err)
		}
		if out.Killed != tc.killed {
			t.Errorf("%v: killed=%t, want %t (%s)", tc.design, out.Killed, tc.killed, out.KillReason)
		}
		if tc.design == Baseline && out.ExitCode != 99 {
			t.Errorf("baseline exit=%d, want the attacker's 99", out.ExitCode)
		}
	}
}

func TestPublicAPIConcurrentChannels(t *testing.T) {
	mod := buildAPIVictim(t)
	ins, err := Instrument(mod, HQSfeStk, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []ChannelKind{SharedRing, FPGA, UArchModel, UArchSim, MessageQueue} {
		ch, err := NewChannel(kind)
		if err != nil {
			t.Fatalf("NewChannel(%v): %v", kind, err)
		}
		out, err := Run(ins, RunOptions{Channel: ch, KillOnViolation: true})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !out.Killed {
			t.Errorf("%v: attack not caught over concurrent channel", kind)
		}
		if out.ExitCode == 99 {
			t.Errorf("%v: payload ran", kind)
		}
	}
}

func TestCounterPolicyThroughFacade(t *testing.T) {
	mod := NewModule("count")
	b := NewBuilder(mod)
	b.Func("main", FuncTypeOf(I64Type))
	for i := 0; i < 7; i++ {
		b.Runtime(RTCounterInc, ConstInt(2))
	}
	b.Ret(ConstInt(0))
	mod.Finalize()

	ins, err := Instrument(mod, HQSfeStk, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	factory, err := PolicySet("counter")
	if err != nil {
		t.Fatal(err)
	}
	set := factory()
	_, err = Run(ins, RunOptions{
		Policies: func() []Policy { return set },
	})
	if err != nil {
		t.Fatal(err)
	}
	cnt := set[0].(*CounterPolicy)
	if cnt.Count(2) != 7 {
		t.Errorf("counter = %d, want 7", cnt.Count(2))
	}
}

func TestCostModelFacade(t *testing.T) {
	cm := DefaultCostModel().WithMessaging(MessageCost(8))
	if cm.MessageSend != 40 {
		t.Errorf("MessageCost(8ns) = %d cycles, want 40 at 5GHz", cm.MessageSend)
	}
	mod := buildAPIVictim(t)
	ins, err := Instrument(mod, Baseline, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(ins, RunOptions{Cost: cm})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Cycles == 0 {
		t.Error("no cycles accounted")
	}
}
