package vm

import (
	"errors"
	"testing"

	"herqules/internal/ipc"
	"herqules/internal/mir"
	"herqules/internal/sim"
)

// run builds a process over mod and runs entry, collecting emitted messages.
func run(t *testing.T, mod *mir.Module, cfg Config, entry string, args ...uint64) (*Result, []ipc.Message) {
	t.Helper()
	if err := mir.Validate(mod); err != nil {
		t.Fatalf("invalid IR: %v", err)
	}
	var msgs []ipc.Message
	if cfg.Emit == nil {
		cfg.Emit = func(m ipc.Message) error { msgs = append(msgs, m); return nil }
	}
	p, err := NewProcess(mod, cfg)
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	return p.Run(entry, args...), msgs
}

func TestArithmeticAndReturn(t *testing.T) {
	mod := mir.NewModule("arith")
	b := mir.NewBuilder(mod)
	f := b.Func("main", mir.FuncType(mir.I64, mir.I64, mir.I64), "x", "y")
	sum := b.Add(f.Params[0], f.Params[1])
	prod := b.Mul(sum, mir.ConstInt(3))
	b.Ret(b.Sub(prod, mir.ConstInt(1)))
	mod.Finalize()

	res, _ := run(t, mod, Config{}, "main", 10, 4)
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if res.ExitCode != (10+4)*3-1 {
		t.Errorf("result = %d, want 41", res.ExitCode)
	}
}

func TestLoopWithPhis(t *testing.T) {
	// sum 0..n-1 via phi-carried loop.
	mod := mir.NewModule("loop")
	b := mir.NewBuilder(mod)
	f := b.Func("main", mir.FuncType(mir.I64, mir.I64), "n")
	entry := b.Blk
	header := b.Block("header")
	body := b.Block("body")
	exit := b.Block("exit")
	b.Br(header)
	b.SetBlock(header)
	i := b.Phi(mir.I64, mir.ConstInt(0), entry)
	s := b.Phi(mir.I64, mir.ConstInt(0), entry)
	b.CondBr(b.Cmp(mir.CmpLt, i, f.Params[0]), body, exit)
	b.SetBlock(body)
	s1 := b.Add(s, i)
	i1 := b.Add(i, mir.ConstInt(1))
	i.Args, i.PhiBlocks = append(i.Args, i1), append(i.PhiBlocks, body)
	s.Args, s.PhiBlocks = append(s.Args, s1), append(s.PhiBlocks, body)
	b.Br(header)
	b.SetBlock(exit)
	b.Ret(s)
	mod.Finalize()

	res, _ := run(t, mod, Config{}, "main", 100)
	if res.Err != nil || res.ExitCode != 4950 {
		t.Errorf("sum = %d (err %v), want 4950", res.ExitCode, res.Err)
	}
}

func TestParallelPhiSwap(t *testing.T) {
	// Classic swap problem: phis must read all inputs before writing.
	mod := mir.NewModule("swap")
	b := mir.NewBuilder(mod)
	b.Func("main", mir.FuncType(mir.I64))
	entry := b.Blk
	loop := b.Block("loop")
	exit := b.Block("exit")
	b.Br(loop)
	b.SetBlock(loop)
	x := b.Phi(mir.I64, mir.ConstInt(1), entry)
	y := b.Phi(mir.I64, mir.ConstInt(2), entry)
	k := b.Phi(mir.I64, mir.ConstInt(0), entry)
	k1 := b.Add(k, mir.ConstInt(1))
	// swap x,y each iteration
	x.Args, x.PhiBlocks = append(x.Args, y), append(x.PhiBlocks, loop)
	y.Args, y.PhiBlocks = append(y.Args, x), append(y.PhiBlocks, loop)
	k.Args, k.PhiBlocks = append(k.Args, k1), append(k.PhiBlocks, loop)
	b.CondBr(b.Cmp(mir.CmpLt, k1, mir.ConstInt(3)), loop, exit)
	b.SetBlock(exit)
	// Two back-edge arrivals swap twice: x=1, y=2 at exit. Sequential phi
	// assignment would have collapsed both to the same value.
	b.Ret(b.Add(b.Mul(x, mir.ConstInt(10)), y))
	mod.Finalize()

	res, _ := run(t, mod, Config{}, "main")
	if res.Err != nil || res.ExitCode != 12 {
		t.Errorf("swap result = %d (err %v), want 12", res.ExitCode, res.Err)
	}
}

func TestAllocaStoreLoadAndStructFields(t *testing.T) {
	mod := mir.NewModule("memops")
	b := mir.NewBuilder(mod)
	pair := mir.StructType("pair", mir.I64, mir.I64)
	b.Func("main", mir.FuncType(mir.I64))
	s := b.Alloca("s", pair)
	b.Store(mir.ConstInt(7), b.FieldAddr(s, 0))
	b.Store(mir.ConstInt(35), b.FieldAddr(s, 1))
	v0 := b.Load(b.FieldAddr(s, 0))
	v1 := b.Load(b.FieldAddr(s, 1))
	b.Ret(b.Add(v0, v1))
	mod.Finalize()

	res, _ := run(t, mod, Config{}, "main")
	if res.Err != nil || res.ExitCode != 42 {
		t.Errorf("= %d (err %v), want 42", res.ExitCode, res.Err)
	}
}

func TestHeapAndMemcpy(t *testing.T) {
	mod := mir.NewModule("heap")
	b := mir.NewBuilder(mod)
	b.Func("main", mir.FuncType(mir.I64))
	src := b.Malloc(mir.ConstInt(64))
	dst := b.Malloc(mir.ConstInt(64))
	srcW := b.Cast(src, mir.Ptr(mir.I64))
	b.Store(mir.ConstInt(0xabcd), srcW)
	b.Memcpy(dst, src, mir.ConstInt(64))
	v := b.Load(b.Cast(dst, mir.Ptr(mir.I64)))
	b.Free(src)
	b.Free(dst)
	b.Ret(v)
	mod.Finalize()

	res, _ := run(t, mod, Config{}, "main")
	if res.Err != nil || res.ExitCode != 0xabcd {
		t.Errorf("= %#x (err %v), want 0xabcd", res.ExitCode, res.Err)
	}
}

func TestDoubleFreeCrashes(t *testing.T) {
	mod := mir.NewModule("dfree")
	b := mir.NewBuilder(mod)
	b.Func("main", mir.FuncType(mir.I64))
	p := b.Malloc(mir.ConstInt(16))
	b.Free(p)
	b.Free(p)
	b.Ret(mir.ConstInt(0))
	mod.Finalize()
	res, _ := run(t, mod, Config{}, "main")
	if res.Err == nil {
		t.Error("double free did not crash")
	}
}

func TestDirectAndIndirectCalls(t *testing.T) {
	mod := mir.NewModule("calls")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.I64, mir.I64)
	dbl := b.Func("dbl", sig, "x")
	b.Ret(b.Mul(dbl.Params[0], mir.ConstInt(2)))
	f := b.Func("main", mir.FuncType(mir.I64))
	direct := b.Call(dbl, mir.ConstInt(10))
	slot := b.Alloca("fp", mir.Ptr(sig))
	b.Store(b.FuncAddr(dbl), slot)
	fp := b.Load(slot)
	indirect := b.ICall(fp, sig, mir.ConstInt(11))
	b.Ret(b.Add(direct, indirect))
	mod.Finalize()
	_ = f

	res, _ := run(t, mod, Config{}, "main")
	if res.Err != nil || res.ExitCode != 42 {
		t.Errorf("= %d (err %v), want 42", res.ExitCode, res.Err)
	}
	if res.Stats.Calls != 1 || res.Stats.ICalls != 1 {
		t.Errorf("call stats = %d/%d", res.Stats.Calls, res.Stats.ICalls)
	}
}

func TestRecursionFibonacci(t *testing.T) {
	mod := mir.NewModule("fib")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.I64, mir.I64)
	fib := b.Func("fib", sig, "n")
	base := b.Blk
	rec := b.Block("rec")
	_ = base
	b.CondBr(b.Cmp(mir.CmpLt, fib.Params[0], mir.ConstInt(2)), b.Block("ret1"), rec)
	retb := fib.Blocks[2]
	b.SetBlock(retb)
	b.Ret(fib.Params[0])
	b.SetBlock(rec)
	a := b.Call(fib, b.Sub(fib.Params[0], mir.ConstInt(1)))
	c := b.Call(fib, b.Sub(fib.Params[0], mir.ConstInt(2)))
	b.Ret(b.Add(a, c))
	mod.Finalize()

	res, _ := run(t, mod, Config{}, "fib", 15)
	if res.Err != nil || res.ExitCode != 610 {
		t.Errorf("fib(15) = %d (err %v), want 610", res.ExitCode, res.Err)
	}
}

func TestSyscallOutputAndExit(t *testing.T) {
	mod := mir.NewModule("io")
	b := mir.NewBuilder(mod)
	b.Func("main", mir.FuncType(mir.I64))
	b.Syscall(SysWrite, mir.ConstInt(111))
	b.Syscall(SysWrite, mir.ConstInt(222))
	b.Syscall(SysExit, mir.ConstInt(5))
	b.Ret(mir.ConstInt(0)) // unreachable
	mod.Finalize()

	res, _ := run(t, mod, Config{}, "main")
	if res.Err != nil {
		t.Fatalf("err: %v", res.Err)
	}
	if res.ExitCode != 5 {
		t.Errorf("exit = %d", res.ExitCode)
	}
	if len(res.Output) != 2 || res.Output[0] != 111 || res.Output[1] != 222 {
		t.Errorf("output = %v", res.Output)
	}
	if res.Stats.Syscalls != 3 {
		t.Errorf("syscalls = %d", res.Stats.Syscalls)
	}
}

func TestGlobalsAndReadOnlyProtection(t *testing.T) {
	mod := mir.NewModule("globals")
	b := mir.NewBuilder(mod)
	g := b.Global("counter", mir.I64, "data")
	g.InitWords = []uint64{40}
	ro := b.Global("table", mir.I64, "data")
	ro.ReadOnly = true
	ro.InitWords = []uint64{2}
	b.Func("main", mir.FuncType(mir.I64))
	v := b.Load(g)
	v2 := b.Add(v, b.Load(ro))
	b.Store(v2, g)
	b.Ret(b.Load(g))
	mod.Finalize()

	res, _ := run(t, mod, Config{}, "main")
	if res.Err != nil || res.ExitCode != 42 {
		t.Errorf("= %d (err %v), want 42", res.ExitCode, res.Err)
	}

	// A store to the read-only global faults.
	mod2 := mir.NewModule("badstore")
	b2 := mir.NewBuilder(mod2)
	ro2 := b2.Global("t", mir.I64, "data")
	ro2.ReadOnly = true
	b2.Func("main", mir.FuncType(mir.I64))
	b2.Store(mir.ConstInt(1), ro2)
	b2.Ret(mir.ConstInt(0))
	mod2.Finalize()
	res2, _ := run(t, mod2, Config{}, "main")
	if res2.Err == nil {
		t.Error("store to read-only global succeeded")
	}
}

// buildOverflowAttack constructs the canonical stack-smashing victim: a
// function with a local buffer that writes `count` words of `payload`
// starting at the buffer — overflowing into the frame's return slot when
// count is large enough — plus an attacker function that records the exploit
// marker.
func buildOverflowAttack(words int) *mir.Module {
	mod := mir.NewModule("smash")
	b := mir.NewBuilder(mod)

	atk := b.Func("attacker", mir.FuncType(mir.Void))
	b.Syscall(SysMarkExploit)
	b.Syscall(SysExit, mir.ConstInt(99))
	b.Ret(nil)

	vuln := b.Func("vuln", mir.FuncType(mir.Void, mir.I64), "n")
	buf := b.Alloca("buf", mir.ArrayType(mir.I64, 4))
	entry := b.Blk
	loop := b.Block("loop")
	done := b.Block("done")
	payload := b.Cast(b.FuncAddr(atk), mir.I64)
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(mir.I64, mir.ConstInt(0), entry)
	slot := b.IndexAddr(buf, i)
	b.Store(payload, slot) // the overflowing write
	i1 := b.Add(i, mir.ConstInt(1))
	i.Args, i.PhiBlocks = append(i.Args, i1), append(i.PhiBlocks, loop)
	b.CondBr(b.Cmp(mir.CmpLt, i1, vuln.Params[0]), loop, done)
	b.SetBlock(done)
	b.Ret(nil)

	b.Func("main", mir.FuncType(mir.I64))
	b.Call(vuln, mir.ConstInt(uint64(words)))
	b.Ret(mir.ConstInt(0))
	mod.Finalize()
	return mod
}

func TestStackSmashHijacksOnRegularStack(t *testing.T) {
	// Writing 5 words from a 4-word buffer hits the in-frame return slot;
	// the return must transfer to the attacker.
	res, _ := run(t, buildOverflowAttack(5), Config{Placement: PlaceRegular}, "main")
	if !res.Hijacked {
		t.Fatal("overflow did not hijack control")
	}
	if !res.ExploitMarker {
		t.Error("attacker payload did not run")
	}
	if res.ExitCode != 99 {
		t.Errorf("exit = %d, want attacker's 99", res.ExitCode)
	}
}

func TestStackSmashInBoundsIsHarmless(t *testing.T) {
	res, _ := run(t, buildOverflowAttack(4), Config{Placement: PlaceRegular}, "main")
	if res.Hijacked || res.ExploitMarker || res.Err != nil {
		t.Errorf("in-bounds writes misbehaved: hijack=%t marker=%t err=%v",
			res.Hijacked, res.ExploitMarker, res.Err)
	}
}

func TestSafeStackDefeatsContiguousOverflow(t *testing.T) {
	// Under a safe stack, the in-frame slot is a decoy; the overflow
	// corrupts it but the return reads the safe slot.
	for _, place := range []RetSlotPlacement{PlaceSafeGuarded, PlaceSafeAdjacent} {
		res, _ := run(t, buildOverflowAttack(5), Config{Placement: place}, "main")
		if res.Hijacked || res.ExploitMarker {
			t.Errorf("placement %v: contiguous overflow still hijacked", place)
		}
		if res.Err != nil {
			t.Errorf("placement %v: unexpected crash %v", place, res.Err)
		}
	}
}

// buildDisclosureAttack leaks the actual return-slot address via the
// compiler-builtin intrinsic and writes the attacker address through it.
func buildDisclosureAttack() *mir.Module {
	mod := mir.NewModule("disclose")
	b := mir.NewBuilder(mod)
	atk := b.Func("attacker", mir.FuncType(mir.Void))
	b.Syscall(SysMarkExploit)
	b.Syscall(SysExit, mir.ConstInt(99))
	b.Ret(nil)

	b.Func("vuln", mir.FuncType(mir.Void))
	leak := b.Syscall(SysLeakRetSlotAddr)
	slotPtr := b.Cast(leak, mir.Ptr(mir.I64))
	b.Store(b.Cast(b.FuncAddr(atk), mir.I64), slotPtr)
	b.Ret(nil)

	b.Func("main", mir.FuncType(mir.I64))
	b.Call(mod.Func("vuln"))
	b.Ret(mir.ConstInt(0))
	mod.Finalize()
	return mod
}

func TestDisclosureDefeatsSafeStack(t *testing.T) {
	for _, place := range []RetSlotPlacement{PlaceRegular, PlaceSafeGuarded, PlaceSafeAdjacent} {
		res, _ := run(t, buildDisclosureAttack(), Config{Placement: place}, "main")
		if !res.Hijacked || !res.ExploitMarker {
			t.Errorf("placement %v: disclosure attack failed (hijack=%t marker=%t err=%v)",
				place, res.Hijacked, res.ExploitMarker, res.Err)
		}
	}
}

func TestFrameSlotAddrMissesUnderSafeStack(t *testing.T) {
	// Writing to the layout-knowledge (plain stack) slot is harmless when
	// the design relocated the slot.
	mod := mir.NewModule("miss")
	b := mir.NewBuilder(mod)
	atk := b.Func("attacker", mir.FuncType(mir.Void))
	b.Syscall(SysMarkExploit)
	b.Ret(nil)
	b.Func("vuln", mir.FuncType(mir.Void))
	leak := b.Syscall(SysFrameRetSlotAddr)
	b.Store(b.Cast(b.FuncAddr(atk), mir.I64), b.Cast(leak, mir.Ptr(mir.I64)))
	b.Ret(nil)
	b.Func("main", mir.FuncType(mir.I64))
	b.Call(mod.Func("vuln"))
	b.Ret(mir.ConstInt(0))
	mod.Finalize()

	res, _ := run(t, mod, Config{Placement: PlaceSafeGuarded}, "main")
	if res.Hijacked || res.ExploitMarker {
		t.Error("decoy slot write hijacked under safe stack")
	}
	res2, _ := run(t, mod, Config{Placement: PlaceRegular}, "main")
	if !res2.Hijacked {
		t.Error("slot write failed on the regular stack")
	}
}

// buildLinearCrossAttack overflows from a stack buffer upward, across the
// top of the regular stack, into the safe region (CPI-style adjacency).
func buildLinearCrossAttack() *mir.Module {
	mod := mir.NewModule("lincross")
	b := mir.NewBuilder(mod)
	atk := b.Func("attacker", mir.FuncType(mir.Void))
	b.Syscall(SysMarkExploit)
	b.Syscall(SysExit, mir.ConstInt(99))
	b.Ret(nil)

	vuln := b.Func("vuln", mir.FuncType(mir.Void, mir.I64), "n")
	buf := b.Alloca("buf", mir.ArrayType(mir.I64, 4))
	entry := b.Blk
	loop := b.Block("loop")
	done := b.Block("done")
	payload := b.Cast(b.FuncAddr(atk), mir.I64)
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(mir.I64, mir.ConstInt(0), entry)
	b.Store(payload, b.IndexAddr(buf, i))
	i1 := b.Add(i, mir.ConstInt(1))
	i.Args, i.PhiBlocks = append(i.Args, i1), append(i.PhiBlocks, loop)
	b.CondBr(b.Cmp(mir.CmpLt, i1, vuln.Params[0]), loop, done)
	b.SetBlock(done)
	b.Ret(nil)

	b.Func("main", mir.FuncType(mir.I64))
	// Write far enough to cross from the buffer through the stack top
	// into an adjacent safe region: frames sit near the top, so a few
	// thousand words suffice.
	b.Call(vuln, mir.ConstInt(4096))
	b.Ret(mir.ConstInt(0))
	mod.Finalize()
	return mod
}

func TestLinearCrossReachesAdjacentSafeStack(t *testing.T) {
	res, _ := run(t, buildLinearCrossAttack(), Config{Placement: PlaceSafeAdjacent}, "main")
	if !res.Hijacked || !res.ExploitMarker {
		t.Errorf("linear cross vs adjacent safe stack failed: hijack=%t marker=%t err=%v",
			res.Hijacked, res.ExploitMarker, res.Err)
	}
}

func TestGuardPageStopsLinearCross(t *testing.T) {
	res, _ := run(t, buildLinearCrossAttack(), Config{Placement: PlaceSafeGuarded}, "main")
	if res.Hijacked || res.ExploitMarker {
		t.Error("guard page failed to stop the linear overwrite")
	}
	if res.Err == nil {
		t.Error("linear overwrite into guard page did not fault")
	}
}

func TestICallToInvalidAddressFaults(t *testing.T) {
	mod := mir.NewModule("badicall")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.Void)
	b.Func("main", mir.FuncType(mir.I64))
	fp := b.Cast(mir.ConstInt(0x1234), mir.Ptr(sig))
	b.ICall(fp, sig)
	b.Ret(mir.ConstInt(0))
	mod.Finalize()
	res, _ := run(t, mod, Config{}, "main")
	if res.Err == nil {
		t.Error("icall to garbage succeeded")
	}
}

func TestHQMessagesEmitted(t *testing.T) {
	mod := mir.NewModule("msgs")
	b := mir.NewBuilder(mod)
	b.Func("main", mir.FuncType(mir.I64))
	slot := b.Alloca("fp", mir.Ptr(mir.FuncType(mir.Void)))
	b.Runtime(mir.RTPointerDefine, slot, mir.ConstInt(0x400100))
	b.Runtime(mir.RTPointerCheck, slot, mir.ConstInt(0x400100))
	b.Runtime(mir.RTPointerInvalidate, slot)
	sync := b.Runtime(mir.RTSyscallSync)
	sync.SyscallNo = SysExit
	b.Syscall(SysExit, mir.ConstInt(0))
	b.Ret(mir.ConstInt(0))
	mod.Finalize()

	res, msgs := run(t, mod, Config{PID: 9}, "main")
	if res.Err != nil {
		t.Fatalf("err: %v", res.Err)
	}
	wantOps := []ipc.Op{ipc.OpPointerDefine, ipc.OpPointerCheck, ipc.OpPointerInvalidate, ipc.OpSyscall}
	if len(msgs) != len(wantOps) {
		t.Fatalf("got %d messages, want %d: %v", len(msgs), len(wantOps), msgs)
	}
	for i, op := range wantOps {
		if msgs[i].Op != op {
			t.Errorf("msg %d = %v, want %v", i, msgs[i].Op, op)
		}
		if msgs[i].PID != 9 {
			t.Errorf("msg %d PID = %d", i, msgs[i].PID)
		}
	}
	if res.Stats.Messages != 4 {
		t.Errorf("Stats.Messages = %d", res.Stats.Messages)
	}
}

func TestKilledStopsExecutionAfterMessage(t *testing.T) {
	mod := mir.NewModule("killed")
	b := mir.NewBuilder(mod)
	b.Func("main", mir.FuncType(mir.I64))
	b.Runtime(mir.RTPointerCheck, mir.ConstInt(0x10), mir.ConstInt(0x20))
	b.Syscall(SysWrite, mir.ConstInt(7)) // must not run
	b.Ret(mir.ConstInt(0))
	mod.Finalize()

	killed := false
	cfg := Config{
		Emit:   func(m ipc.Message) error { killed = true; return nil },
		Killed: func() (bool, string) { return killed, "policy violation" },
	}
	res, _ := run(t, mod, cfg, "main")
	if !res.Killed {
		t.Fatal("kill not observed")
	}
	if len(res.Output) != 0 {
		t.Error("output produced after kill")
	}
}

func TestClangCFICheckTrapAndContinue(t *testing.T) {
	build := func() (*mir.Module, *mir.Instr) {
		mod := mir.NewModule("cfi")
		b := mir.NewBuilder(mod)
		sigA := mir.FuncType(mir.I64, mir.I64)
		target := b.Func("target", sigA, "x")
		b.Ret(target.Params[0])
		b.Func("main", mir.FuncType(mir.I64))
		fp := b.FuncAddr(target)
		chk := b.Runtime(mir.RTClangCFICheck, fp)
		b.ICall(fp, sigA, mir.ConstInt(1))
		b.Ret(mir.ConstInt(0))
		mod.Finalize()
		return mod, chk
	}

	// Matching class: passes.
	mod, chk := build()
	chk.ClassSig = mir.FuncType(mir.I64, mir.I64).Signature()
	res, _ := run(t, mod, Config{}, "main")
	if res.Err != nil || res.Violations != 0 {
		t.Errorf("matching class: err=%v violations=%d", res.Err, res.Violations)
	}

	// Mismatched class (e.g. decayed pointer): traps...
	mod2, chk2 := build()
	chk2.ClassSig = mir.FuncType(mir.Void).Signature()
	res2, _ := run(t, mod2, Config{}, "main")
	if !errors.Is(res2.Err, ErrTrap) {
		t.Errorf("mismatch: err=%v, want trap", res2.Err)
	}
	// ...or records a false positive in continue mode (§5 methodology).
	mod3, chk3 := build()
	chk3.ClassSig = mir.FuncType(mir.Void).Signature()
	res3, _ := run(t, mod3, Config{ContinueOnViolation: true}, "main")
	if res3.Err != nil || res3.Violations != 1 {
		t.Errorf("continue mode: err=%v violations=%d", res3.Err, res3.Violations)
	}
}

func TestCCFIMACDetectsCorruption(t *testing.T) {
	// Store a protected pointer (MAC'd), corrupt the raw memory, then
	// check: the MAC no longer matches.
	mod := mir.NewModule("ccfi")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.Void)
	good := b.Func("good", sig)
	b.Ret(nil)
	evil := b.Func("evil", sig)
	b.Ret(nil)
	b.Func("main", mir.FuncType(mir.I64))
	slot := b.Alloca("fp", mir.Ptr(sig))
	goodV := b.Cast(b.FuncAddr(good), mir.I64)
	b.Store(goodV, b.Cast(slot, mir.Ptr(mir.I64)))
	st := b.Runtime(mir.RTMACStore, slot, goodV)
	st.ClassSig = sig.Signature()
	// Attacker overwrites the slot.
	b.Store(b.Cast(b.FuncAddr(evil), mir.I64), b.Cast(slot, mir.Ptr(mir.I64)))
	loaded := b.Load(b.Cast(slot, mir.Ptr(mir.I64)))
	chk := b.Runtime(mir.RTMACCheck, slot, loaded)
	chk.ClassSig = sig.Signature()
	b.Ret(mir.ConstInt(0))
	mod.Finalize()

	res, _ := run(t, mod, Config{}, "main")
	if !errors.Is(res.Err, ErrTrap) {
		t.Errorf("corrupted pointer passed MAC check: %v", res.Err)
	}
}

func TestCCFIMACTypeTagMismatchFalsePositive(t *testing.T) {
	// Same value, different static type tags at store vs load — a cast
	// away and back — triggers a false positive, the §5.1 CCFI behaviour.
	mod := mir.NewModule("ccfi-fp")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.Void)
	fn := b.Func("fn", sig)
	b.Ret(nil)
	b.Func("main", mir.FuncType(mir.I64))
	slot := b.Alloca("fp", mir.Ptr(sig))
	v := b.Cast(b.FuncAddr(fn), mir.I64)
	b.Store(v, b.Cast(slot, mir.Ptr(mir.I64)))
	st := b.Runtime(mir.RTMACStore, slot, v)
	st.ClassSig = "void(i8*)" // stored under the decayed type
	loaded := b.Load(b.Cast(slot, mir.Ptr(mir.I64)))
	chk := b.Runtime(mir.RTMACCheck, slot, loaded)
	chk.ClassSig = sig.Signature() // checked under the real type
	b.Ret(mir.ConstInt(0))
	mod.Finalize()

	res, _ := run(t, mod, Config{ContinueOnViolation: true}, "main")
	if res.Violations != 1 {
		t.Errorf("violations = %d, want 1 false positive", res.Violations)
	}
}

func TestCPISafeStoreNeutralizesCorruption(t *testing.T) {
	// CPI: the dispatch value comes from the safe store, so corrupting
	// raw memory does not redirect the call.
	mod := mir.NewModule("cpi")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.I64)
	good := b.Func("good", sig)
	b.Ret(mir.ConstInt(1))
	evil := b.Func("evil", sig)
	b.Ret(mir.ConstInt(666))
	b.Func("main", mir.FuncType(mir.I64))
	slot := b.Alloca("fp", mir.Ptr(sig))
	goodV := b.Cast(b.FuncAddr(good), mir.I64)
	b.Runtime(mir.RTSafeStoreSet, slot, goodV)
	b.Store(mir.ConstInt(0), b.Cast(slot, mir.Ptr(mir.I64))) // poisoned raw slot
	// Attacker corrupts raw memory.
	b.Store(b.Cast(b.FuncAddr(evil), mir.I64), b.Cast(slot, mir.Ptr(mir.I64)))
	get := b.Runtime(mir.RTSafeStoreGet, slot)
	get.Typ = mir.I64
	fp := b.Cast(get, mir.Ptr(sig))
	r := b.ICall(fp, sig)
	b.Ret(r)
	mod.Finalize()

	res, _ := run(t, mod, Config{}, "main")
	if res.Err != nil || res.ExitCode != 1 {
		t.Errorf("= %d (err %v), want good's 1", res.ExitCode, res.Err)
	}
}

func TestCPIMissedRedirectCrashesOnPoison(t *testing.T) {
	// The CPI bug mode: the store was redirected (raw slot poisoned) but
	// a decayed load was missed — it reads the poison and the icall
	// faults (§5.1: "crashing upon execution of NULL pointers").
	mod := mir.NewModule("cpi-bug")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.Void)
	fn := b.Func("fn", sig)
	b.Ret(nil)
	b.Func("main", mir.FuncType(mir.I64))
	slot := b.Alloca("fp", mir.Ptr(sig))
	b.Runtime(mir.RTSafeStoreSet, slot, b.Cast(b.FuncAddr(fn), mir.I64))
	b.Store(mir.ConstInt(0), b.Cast(slot, mir.Ptr(mir.I64))) // poison
	loaded := b.Load(b.Cast(slot, mir.Ptr(mir.I64)))         // missed redirect
	b.ICall(b.Cast(loaded, mir.Ptr(sig)), sig)
	b.Ret(mir.ConstInt(0))
	mod.Finalize()

	res, _ := run(t, mod, Config{}, "main")
	if res.Err == nil {
		t.Error("null-pointer icall did not crash")
	}
}

func TestRecursionGuard(t *testing.T) {
	mod := mir.NewModule("guard")
	b := mir.NewBuilder(mod)
	f := b.Func("opt", mir.FuncType(mir.Void, mir.I64), "again")
	enter := b.Runtime(mir.RTRecursionGuardEnter)
	enter.GuardID = 3
	rec := b.Block("rec")
	out := b.Block("out")
	b.CondBr(f.Params[0], rec, out)
	b.SetBlock(rec)
	b.Call(f, mir.ConstInt(0)) // re-enter while guard held
	b.Br(out)
	b.SetBlock(out)
	exitG := b.Runtime(mir.RTRecursionGuardExit)
	exitG.GuardID = 3
	b.Ret(nil)
	b.Func("main", mir.FuncType(mir.I64))
	b.Call(f, mir.ConstInt(1))
	b.Ret(mir.ConstInt(0))
	mod.Finalize()

	res, _ := run(t, mod, Config{}, "main")
	if !errors.Is(res.Err, ErrTrap) {
		t.Errorf("guard failure: err=%v, want trap", res.Err)
	}

	// Non-recursive path is fine.
	res2, _ := run(t, mod, Config{}, "main")
	_ = res2
	mod2 := mod.Clone()
	p2, err := NewProcess(mod2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2 := p2.Run("opt", 0)
	if r2.Err != nil {
		t.Errorf("non-recursive guarded call: %v", r2.Err)
	}
}

func TestRetPtrMessagesProtectReturn(t *testing.T) {
	// HQ-CFI-RetPtr: prologue define + epilogue check-invalidate. A
	// corrupted slot produces a check message whose value differs from
	// the defined one; the verifier hook kills the process before the
	// hijacked return's payload runs.
	mod := mir.NewModule("retptr")
	b := mir.NewBuilder(mod)
	atk := b.Func("attacker", mir.FuncType(mir.Void))
	b.Syscall(SysMarkExploit)
	b.Ret(nil)

	b.Func("vuln", mir.FuncType(mir.Void))
	b.Runtime(mir.RTRetDefine)
	leak := b.Syscall(SysLeakRetSlotAddr)
	b.Store(b.Cast(b.FuncAddr(atk), mir.I64), b.Cast(leak, mir.Ptr(mir.I64)))
	b.Runtime(mir.RTRetCheckInvalidate)
	b.Ret(nil)

	b.Func("main", mir.FuncType(mir.I64))
	b.Call(mod.Func("vuln"))
	b.Ret(mir.ConstInt(0))
	mod.Finalize()

	// Verifier-in-a-closure: define remembers, check compares.
	table := map[uint64]uint64{}
	killed := false
	cfg := Config{
		Placement: PlaceRegular,
		Emit: func(m ipc.Message) error {
			switch m.Op {
			case ipc.OpPointerDefine:
				table[m.Arg1] = m.Arg2
			case ipc.OpPointerCheckInvalidate:
				if table[m.Arg1] != m.Arg2 {
					killed = true
				}
			}
			return nil
		},
		Killed: func() (bool, string) { return killed, "return pointer corrupt" },
	}
	res, _ := run(t, mod, cfg, "main")
	if !res.Killed {
		t.Fatal("corrupted return pointer not caught")
	}
	if res.ExploitMarker {
		t.Error("payload ran despite kill")
	}
}

func TestCyclesAccumulate(t *testing.T) {
	mod := mir.NewModule("cost")
	b := mir.NewBuilder(mod)
	b.Func("main", mir.FuncType(mir.I64))
	slot := b.Alloca("x", mir.I64)
	b.Store(mir.ConstInt(1), slot)
	v := b.Load(slot)
	b.Runtime(mir.RTPointerDefine, slot, v)
	b.Ret(v)
	mod.Finalize()

	cost := sim.Default().WithMessaging(100)
	res, _ := run(t, mod, Config{Cost: cost}, "main")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// 5 instructions + load + store + message send + per-site runtime
	// overhead + call overhead.
	want := 5*cost.Instr + cost.Load + cost.Store + 100 +
		cost.RuntimeCost(mir.RTPointerDefine) + cost.CallOverhead
	if res.Stats.Cycles != want {
		t.Errorf("cycles = %d, want %d", res.Stats.Cycles, want)
	}
}

func TestInstructionLimitDetectsHang(t *testing.T) {
	mod := mir.NewModule("hang")
	b := mir.NewBuilder(mod)
	b.Func("main", mir.FuncType(mir.I64))
	loop := b.Block("loop")
	b.Br(loop)
	b.SetBlock(loop)
	b.Br(loop)
	mod.Finalize()

	res, _ := run(t, mod, Config{MaxInstructions: 1000}, "main")
	if !errors.Is(res.Err, ErrLimit) {
		t.Errorf("err = %v, want limit", res.Err)
	}
}

func TestStackOverflowFaults(t *testing.T) {
	mod := mir.NewModule("so")
	b := mir.NewBuilder(mod)
	f := b.Func("rec", mir.FuncType(mir.Void))
	b.Alloca("pad", mir.ArrayType(mir.I64, 64))
	b.Call(f)
	b.Ret(nil)
	mod.Finalize()
	res, _ := run(t, mod, Config{}, "rec")
	if res.Err == nil {
		t.Error("unbounded recursion did not fault")
	}
}

func TestGlobalDefinesEmittedAtStartup(t *testing.T) {
	mod := mir.NewModule("gdef")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.Void)
	fn := b.Func("handler", sig)
	b.Ret(nil)
	g := b.Global("hook", mir.Ptr(sig), "data")
	g.InitFuncs[0] = fn
	rog := b.Global("rotable", mir.Ptr(sig), "data")
	rog.ReadOnly = true
	rog.InitFuncs[0] = fn
	b.Func("main", mir.FuncType(mir.I64))
	b.Ret(mir.ConstInt(0))
	mod.Finalize()

	var msgs []ipc.Message
	cfg := Config{
		EmitGlobalDefines: true,
		Emit:              func(m ipc.Message) error { msgs = append(msgs, m); return nil },
	}
	p, err := NewProcess(mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || msgs[0].Op != ipc.OpPointerDefine {
		t.Fatalf("startup messages = %v, want one define (read-only global skipped)", msgs)
	}
	if msgs[0].Arg1 != p.globalAddr[g] || msgs[0].Arg2 != p.FuncAddr(fn) {
		t.Errorf("define args = %#x,%#x", msgs[0].Arg1, msgs[0].Arg2)
	}
}

func TestIntrinsicLibmAndX87Fallback(t *testing.T) {
	mod := mir.NewModule("fp")
	b := mir.NewBuilder(mod)
	sqrt := mir.NewFunc("libm.sqrt", mir.FuncType(mir.I64, mir.I64), "x")
	sqrt.Intrinsic = true
	mod.AddFunc(sqrt)
	i2f := mir.NewFunc("libm.i2f", mir.FuncType(mir.I64, mir.I64), "x")
	i2f.Intrinsic = true
	mod.AddFunc(i2f)
	b.Func("main", mir.FuncType(mir.I64))
	x := b.Call(i2f, mir.ConstInt(2))
	r := b.Call(sqrt, x)
	b.Syscall(SysWrite, r)
	b.Ret(mir.ConstInt(0))
	mod.Finalize()

	res, _ := run(t, mod, Config{}, "main")
	resX87, _ := run(t, mod.Clone(), Config{X87Fallback: true}, "main")
	if res.Err != nil || resX87.Err != nil {
		t.Fatalf("errs: %v %v", res.Err, resX87.Err)
	}
	if res.Output[0] == resX87.Output[0] {
		t.Error("x87 fallback produced bit-identical sqrt(2); precision divergence not modelled")
	}
}
