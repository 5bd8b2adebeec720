package compiler

import (
	"testing"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/kernel"
	"herqules/internal/mir"
	"herqules/internal/policy"
	"herqules/internal/verifier"
	"herqules/internal/vm"
)

// allDesigns lists every design, for the table-driven tests.
var allDesigns = []Design{Baseline, HQSfeStk, HQRetPtr, ClangCFI, CCFI, CPI}

// buildVictim constructs a small program with a protected function pointer:
// main stores a handler into a global slot, a worker loads and calls it,
// then main exits via syscall. withAttack optionally corrupts the slot
// between the store and the dispatch.
func buildVictim(withAttack bool) *mir.Module {
	mod := mir.NewModule("victim")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.I64, mir.I64)

	handler := b.Func("handler", sig, "x")
	b.Ret(b.Add(handler.Params[0], mir.ConstInt(1)))

	evil := b.Func("evil", sig, "x")
	b.Syscall(vm.SysMarkExploit)
	b.Ret(mir.ConstInt(666))

	slot := b.Global("hook", mir.Ptr(sig), "data")

	worker := b.Func("worker", mir.FuncType(mir.I64, mir.I64), "x")
	fp := b.Load(slot)
	r := b.ICall(fp, sig, worker.Params[0])
	b.Ret(r)

	b.Func("main", mir.FuncType(mir.I64))
	b.Store(b.FuncAddr(handler), slot)
	if withAttack {
		// A memory-safety bug overwrites the raw slot. The payload
		// address is a hardcoded integer (ASLR is off; "evil" is
		// function #1), so no instrumentation pass can recognize this
		// as a control-flow-pointer store — exactly like an overflow
		// writing attacker-supplied bytes.
		rawPtr := b.Cast(slot, mir.Ptr(mir.I64))
		b.Store(mir.ConstInt(vm.StaticFuncAddr(1)), rawPtr)
	}
	_ = evil
	out := b.Call(worker, mir.ConstInt(41))
	b.Syscall(vm.SysWrite, out)
	b.Syscall(vm.SysExit, mir.ConstInt(0))
	b.Ret(mir.ConstInt(0))
	mod.Finalize()
	return mod
}

// launch runs an instrumented module under a full kernel+verifier stack in
// deterministic (inline-delivery) mode. Syscall gating is only wired for HQ
// designs — the baselines have no synchronization messages, so gating them
// would stall every system call.
func launch(t *testing.T, ins *Instrumented, entry string, args ...uint64) (*vm.Result, *verifier.Verifier) {
	t.Helper()
	k := kernel.New(nil)
	k.Epoch = 50 * time.Millisecond
	vv := verifier.New(func() []policy.Policy {
		return []policy.Policy{
			policy.NewCFI(), policy.NewMemSafety(), policy.NewCounter(), policy.NewDFI(),
		}
	}, k)
	k.SetListener(vv)
	pid := k.Register()

	cfg := ins.VMConfig()
	cfg.PID = pid
	if ins.Design.IsHQ() {
		cfg.Kernel = k
	}
	cfg.Emit = func(m ipc.Message) error { vv.Deliver(m); return nil }
	cfg.Killed = func() (bool, string) { return k.Killed(pid) }
	p, err := vm.NewProcess(ins.Mod, cfg)
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	return p.Run(entry, args...), vv
}

func instrument(t *testing.T, mod *mir.Module, d Design, opts Options) *Instrumented {
	t.Helper()
	ins, err := Instrument(mod, d, opts)
	if err != nil {
		t.Fatalf("Instrument(%v): %v", d, err)
	}
	return ins
}

func TestBenignProgramRunsUnderEveryDesign(t *testing.T) {
	mod := buildVictim(false)
	baseline := instrument(t, mod, Baseline, DefaultOptions())
	base, _ := launch(t, baseline, "main")
	if base.Err != nil || len(base.Output) != 1 || base.Output[0] != 42 {
		t.Fatalf("baseline: err=%v output=%v", base.Err, base.Output)
	}
	for _, d := range allDesigns {
		ins := instrument(t, mod, d, DefaultOptions())
		res, _ := launch(t, ins, "main")
		if res.Err != nil {
			t.Errorf("%v: crash: %v", d, res.Err)
			continue
		}
		if res.Killed {
			t.Errorf("%v: benign program killed: %s", d, res.KillReason)
			continue
		}
		if len(res.Output) != 1 || res.Output[0] != 42 {
			t.Errorf("%v: output = %v, want [42]", d, res.Output)
		}
	}
}

func TestHQCatchesPointerCorruption(t *testing.T) {
	mod := buildVictim(true)
	for _, d := range []Design{HQSfeStk, HQRetPtr} {
		ins := instrument(t, mod, d, DefaultOptions())
		res, _ := launch(t, ins, "main")
		if !res.Killed {
			t.Errorf("%v: corrupted pointer not caught (err=%v marker=%t)",
				d, res.Err, res.ExploitMarker)
		}
		if res.ExploitMarker {
			t.Errorf("%v: exploit payload ran", d)
		}
	}
	// Baseline is oblivious: the hijacked call runs the payload.
	res, _ := launch(t, instrument(t, mod, Baseline, DefaultOptions()), "main")
	if !res.ExploitMarker {
		t.Error("baseline should have executed the hijacked call")
	}
}

func TestHQInsertsExpectedMessages(t *testing.T) {
	ins := instrument(t, buildVictim(false), HQSfeStk, Options{StrictSubtype: true})
	if ins.Stats.Defines < 1 {
		t.Errorf("defines = %d, want >= 1", ins.Stats.Defines)
	}
	if ins.Stats.Checks < 1 {
		t.Errorf("checks = %d, want >= 1", ins.Stats.Checks)
	}
	if ins.Stats.SyscallSyncs != 3 {
		t.Errorf("syncs = %d, want 3 (write, exit, mark)", ins.Stats.SyscallSyncs)
	}
}

func TestSyscallSyncPrecedesEverySyscall(t *testing.T) {
	ins := instrument(t, buildVictim(false), HQSfeStk, DefaultOptions())
	for _, f := range ins.Mod.Funcs {
		for _, b := range f.Blocks {
			sawSync := false
			for _, in := range b.Instrs {
				if in.Op == mir.OpRuntime && in.RT == mir.RTSyscallSync {
					sawSync = true
				}
				if in.Op == mir.OpSyscall {
					if !sawSync {
						t.Errorf("@%s: syscall %d without preceding sync", f.Name, in.SyscallNo)
					}
					sawSync = false
				}
				if in.IsCall() {
					sawSync = false // a call invalidates the pending sync
				}
			}
		}
	}
}

func TestSyncHoistedAbovePureInstructions(t *testing.T) {
	mod := mir.NewModule("hoist")
	b := mir.NewBuilder(mod)
	b.Func("main", mir.FuncType(mir.I64))
	x := b.Add(mir.ConstInt(1), mir.ConstInt(2))
	y := b.Mul(x, mir.ConstInt(3))
	b.Syscall(vm.SysWrite, y)
	b.Ret(mir.ConstInt(0))
	mod.Finalize()

	ins := instrument(t, mod, HQSfeStk, DefaultOptions())
	entry := ins.Mod.Func("main").Entry()
	// The sync must come before the arithmetic (earliest suitable point).
	if entry.Instrs[0].Op != mir.OpRuntime || entry.Instrs[0].RT != mir.RTSyscallSync {
		t.Errorf("sync not hoisted to block head: first instr is %v", entry.Instrs[0].Format())
	}
}

func TestBlockOpStrictSubtypeChecking(t *testing.T) {
	build := func() *mir.Module {
		mod := mir.NewModule("blocks")
		b := mir.NewBuilder(mod)
		sig := mir.FuncType(mir.Void)
		fn := b.Func("fn", sig)
		b.Ret(nil)
		withFP := mir.StructType("obj", mir.I64, mir.Ptr(sig))
		noFP := mir.StructType("plain", mir.I64, mir.I64)
		b.Func("main", mir.FuncType(mir.I64))
		src := b.Alloca("src", withFP)
		dst := b.Alloca("dst", withFP)
		b.Store(b.FuncAddr(fn), b.FieldAddr(src, 1))
		b.Memcpy(dst, src, mir.ConstInt(withFP.Size())) // must instrument
		p1 := b.Alloca("p1", noFP)
		p2 := b.Alloca("p2", noFP)
		b.Memcpy(p2, p1, mir.ConstInt(noFP.Size())) // must elide
		raw := b.Malloc(mir.ConstInt(64))
		raw2 := b.Malloc(mir.ConstInt(64))
		b.Memcpy(raw2, raw, mir.ConstInt(64)) // i8*: strict skips
		b.Ret(mir.ConstInt(0))
		mod.Finalize()
		return mod
	}

	strict := instrument(t, build(), HQSfeStk, Options{StrictSubtype: true})
	if strict.Stats.BlockOps != 1 {
		t.Errorf("strict: instrumented %d block ops, want 1", strict.Stats.BlockOps)
	}
	if strict.Stats.BlockOpsElided != 2 {
		t.Errorf("strict: elided %d, want 2", strict.Stats.BlockOpsElided)
	}

	conservative := instrument(t, build(), HQSfeStk, Options{StrictSubtype: false})
	if conservative.Stats.BlockOps != 3 {
		t.Errorf("conservative: instrumented %d block ops, want 3", conservative.Stats.BlockOps)
	}

	allow := instrument(t, build(), HQSfeStk, Options{StrictSubtype: true, Allowlist: []string{"main"}})
	if allow.Stats.BlockOps != 3 {
		t.Errorf("allowlist: instrumented %d block ops, want 3", allow.Stats.BlockOps)
	}
}

func TestFreeAndReallocInstrumentation(t *testing.T) {
	mod := mir.NewModule("heapmsg")
	b := mir.NewBuilder(mod)
	b.Func("main", mir.FuncType(mir.I64))
	p := b.Malloc(mir.ConstInt(32))
	q := b.Realloc(p, mir.ConstInt(64))
	b.Free(q)
	b.Ret(mir.ConstInt(0))
	mod.Finalize()

	ins := instrument(t, mod, HQSfeStk, DefaultOptions())
	main := ins.Mod.Func("main")
	var seq []mir.RuntimeOp
	var ops []mir.Opcode
	for _, in := range main.Entry().Instrs {
		ops = append(ops, in.Op)
		if in.Op == mir.OpRuntime {
			seq = append(seq, in.RT)
		}
	}
	// Expect: malloc, realloc, block-move(after), block-invalidate(before
	// free), free, ...
	foundMove, foundInval := false, false
	for i, in := range main.Entry().Instrs {
		if in.Op == mir.OpRuntime && in.RT == mir.RTBlockMove {
			foundMove = true
			if i == 0 || main.Entry().Instrs[i-1].Op != mir.OpRealloc {
				t.Error("block-move not immediately after realloc")
			}
		}
		if in.Op == mir.OpRuntime && in.RT == mir.RTBlockInvalidate {
			foundInval = true
			if i+1 >= len(main.Entry().Instrs) || main.Entry().Instrs[i+1].Op != mir.OpFree {
				t.Error("block-invalidate not immediately before free")
			}
		}
	}
	if !foundMove || !foundInval {
		t.Errorf("missing heap messages: move=%t inval=%t (seq %v ops %v)", foundMove, foundInval, seq, ops)
	}
}

func TestRetPtrProtectionEligibility(t *testing.T) {
	mod := mir.NewModule("retptr")
	b := mir.NewBuilder(mod)
	// Qualifies: writes memory, has stack alloc, returns.
	f1 := b.Func("qualifies", mir.FuncType(mir.I64))
	s := b.Alloca("buf", mir.ArrayType(mir.I64, 4))
	b.Store(mir.ConstInt(1), b.IndexAddr(s, mir.ConstInt(0)))
	b.Ret(mir.ConstInt(0))
	// Leaf without stack allocation: skipped.
	f2 := b.Func("leaf", mir.FuncType(mir.I64, mir.I64), "x")
	b.Ret(f2.Params[0])
	mod.Finalize()
	_ = f1

	ins := instrument(t, mod, HQRetPtr, DefaultOptions())
	if ins.Stats.RetProtected != 1 {
		t.Errorf("RetProtected = %d, want 1", ins.Stats.RetProtected)
	}
	q := ins.Mod.Func("qualifies")
	if q.Entry().Instrs[0].RT != mir.RTRetDefine {
		t.Error("prologue define missing")
	}
	leaf := ins.Mod.Func("leaf")
	for _, in := range leaf.Entry().Instrs {
		if in.Op == mir.OpRuntime && (in.RT == mir.RTRetDefine || in.RT == mir.RTRetCheckInvalidate) {
			t.Error("leaf function wrongly protected")
		}
	}
}

func TestStoreToLoadForwardingElidesLocalCheck(t *testing.T) {
	// A function pointer stored once into a non-escaping local and
	// immediately dispatched: the check is provably redundant.
	mod := mir.NewModule("fwd")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.I64)
	fn := b.Func("fn", sig)
	b.Ret(mir.ConstInt(7))
	b.Func("main", mir.FuncType(mir.I64))
	slot := b.Alloca("fp", mir.Ptr(sig))
	b.Store(b.FuncAddr(fn), slot)
	fp := b.Load(slot)
	r := b.ICall(fp, sig)
	b.Ret(r)
	mod.Finalize()

	unopt := instrument(t, mod, HQSfeStk, Options{StrictSubtype: true})
	opt := instrument(t, mod, HQSfeStk, Options{StrictSubtype: true, Optimize: true})
	if opt.Stats.ChecksElided == 0 {
		t.Error("forwarding elided nothing")
	}
	countChecks := func(ins *Instrumented) int {
		n := 0
		for _, f := range ins.Mod.Funcs {
			for _, blk := range f.Blocks {
				for _, in := range blk.Instrs {
					if in.Op == mir.OpRuntime && in.RT == mir.RTPointerCheck {
						n++
					}
				}
			}
		}
		return n
	}
	if got, want := countChecks(opt), countChecks(unopt)-1; got != want {
		t.Errorf("optimized checks = %d, want %d", got, want)
	}
	// The optimized program still runs correctly.
	res, _ := launch(t, opt, "main")
	if res.Err != nil || res.ExitCode != 7 {
		t.Errorf("optimized run: exit=%d err=%v", res.ExitCode, res.Err)
	}
}

func TestElisionRemovesUncheckedDefines(t *testing.T) {
	// A local function pointer that is stored but never loaded/called:
	// its define and frame invalidate are dead messages.
	mod := mir.NewModule("elide")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.Void)
	fn := b.Func("fn", sig)
	b.Ret(nil)
	b.Func("main", mir.FuncType(mir.I64))
	slot := b.Alloca("unused_fp", mir.Ptr(sig))
	b.Store(b.FuncAddr(fn), slot)
	b.Ret(mir.ConstInt(0))
	mod.Finalize()

	opt := instrument(t, mod, HQSfeStk, Options{StrictSubtype: true, Optimize: true})
	if opt.Stats.MsgsElided < 2 { // define + frame invalidate
		t.Errorf("MsgsElided = %d, want >= 2", opt.Stats.MsgsElided)
	}
	for _, blk := range opt.Mod.Func("main").Blocks {
		for _, in := range blk.Instrs {
			if in.Op == mir.OpRuntime && (in.RT == mir.RTPointerDefine || in.RT == mir.RTBlockInvalidate) {
				t.Errorf("dead message survived: %s", in.Format())
			}
		}
	}
}

// buildVirtualDispatch models a C++ virtual call: object with vtable pointer
// initialized from a read-only vtable global, dispatch through it.
func buildVirtualDispatch() *mir.Module {
	mod := mir.NewModule("virt")
	b := mir.NewBuilder(mod)
	msig := mir.FuncType(mir.I64, mir.I64)
	m1 := b.Func("Obj_method1", msig, "x")
	b.Ret(b.Add(m1.Params[0], mir.ConstInt(100)))
	m2 := b.Func("Obj_method2", msig, "x")
	b.Ret(b.Mul(m2.Params[0], mir.ConstInt(2)))

	vtType := mir.VTableType(msig, 2)
	vt := b.Global("Obj_vtable", vtType, "data")
	vt.ReadOnly = true
	vt.InitFuncs[0] = m1
	vt.InitFuncs[1] = m2
	m1.AddressTaken = true
	m2.AddressTaken = true

	obj := mir.StructType("Obj", mir.Ptr(vtType), mir.I64)
	b.Func("main", mir.FuncType(mir.I64))
	o := b.Alloca("o", obj)
	vslot := b.FieldAddr(o, 0)
	b.Store(vt, vslot) // constructor stores the vtable pointer
	vp := b.Load(vslot)
	fslot := b.IndexAddr(vp, mir.ConstInt(1))
	fn := b.Load(fslot)
	r := b.ICall(fn, msig, mir.ConstInt(21))
	b.Ret(r)
	mod.Finalize()
	return mod
}

func TestDevirtualization(t *testing.T) {
	mod := buildVirtualDispatch()
	// Sanity: runs indirect under no-devirt.
	plain := instrument(t, mod, HQSfeStk, Options{StrictSubtype: true})
	res, _ := launch(t, plain, "main")
	if res.Err != nil || res.ExitCode != 42 {
		t.Fatalf("virtual dispatch broken: exit=%d err=%v", res.ExitCode, res.Err)
	}

	opt := instrument(t, mod, HQSfeStk, Options{StrictSubtype: true, Devirtualize: true, Optimize: true})
	if opt.Stats.Devirtualized != 1 {
		t.Errorf("Devirtualized = %d, want 1", opt.Stats.Devirtualized)
	}
	// The devirtualized program still computes the same result.
	res2, _ := launch(t, opt, "main")
	if res2.Err != nil || res2.ExitCode != 42 {
		t.Errorf("devirtualized run: exit=%d err=%v", res2.ExitCode, res2.Err)
	}
	if res2.Stats.ICalls != 0 {
		t.Errorf("icalls = %d after devirtualization", res2.Stats.ICalls)
	}
	// Fewer messages than the unoptimized build.
	resPlain, _ := launch(t, plain, "main")
	if res2.Stats.Messages >= resPlain.Stats.Messages {
		t.Errorf("devirt+elide messages = %d, not fewer than %d",
			res2.Stats.Messages, resPlain.Stats.Messages)
	}
}

func TestInterProcForwardingWithRecursionGuard(t *testing.T) {
	// Caller defines a global funcptr once; callee (uniquely called,
	// recursive) checks it at entry. Inter-procedural forwarding elides
	// the callee check and installs a recursion guard.
	mod := mir.NewModule("iproc")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.Void)
	fn := b.Func("fn", sig)
	b.Ret(nil)
	g := b.Global("gfp", mir.Ptr(sig), "data")

	callee := b.Func("callee", mir.FuncType(mir.Void, mir.I64), "n")
	fp := b.Load(g)
	b.ICall(fp, sig)
	rec := b.Block("rec")
	done := b.Block("done")
	b.CondBr(callee.Params[0], rec, done)
	b.SetBlock(rec)
	b.Call(callee, b.Sub(callee.Params[0], mir.ConstInt(1)))
	b.Br(done)
	b.SetBlock(done)
	b.Ret(nil)

	b.Func("main", mir.FuncType(mir.I64))
	b.Store(b.FuncAddr(fn), g)
	b.Call(callee, mir.ConstInt(0))
	b.Ret(mir.ConstInt(0))
	mod.Finalize()

	opt := instrument(t, mod, HQSfeStk, Options{
		StrictSubtype: true, Optimize: true, InterProcForwarding: true,
	})
	if opt.Stats.Guards != 1 {
		t.Errorf("Guards = %d, want 1 (callee is recursive)", opt.Stats.Guards)
	}
	// Non-recursive path still works under the guard.
	res, _ := launch(t, opt, "main")
	if res.Err != nil {
		t.Errorf("guarded run failed: %v", res.Err)
	}
}

func TestClangCFIInsertsTypeChecks(t *testing.T) {
	ins := instrument(t, buildVictim(false), ClangCFI, DefaultOptions())
	if ins.Stats.TypeChecks != 1 {
		t.Errorf("TypeChecks = %d, want 1", ins.Stats.TypeChecks)
	}
	if ins.Placement != vm.PlaceSafeGuarded {
		t.Error("Clang CFI must use a guarded safe stack")
	}
	if ins.Stats.Defines != 0 {
		t.Error("Clang CFI must not emit HQ messages")
	}
}

func TestClangCFIFalsePositiveOnDecayedPointer(t *testing.T) {
	// The povray pattern (§5.1): a pointer defined as void(i8*) but
	// called as void(Obj*). HQ accepts it; Clang CFI reports a violation.
	mod := mir.NewModule("decay")
	b := mir.NewBuilder(mod)
	obj := mir.StructType("Object_Struct", mir.I64)
	genericSig := mir.FuncType(mir.Void, mir.Ptr(mir.I8))
	objSig := mir.FuncType(mir.Void, mir.Ptr(obj))
	fn := b.Func("handler", genericSig, "p")
	b.Ret(nil)
	slot := b.Global("cb", mir.Ptr(genericSig), "data")
	b.Func("main", mir.FuncType(mir.I64))
	b.Store(b.FuncAddr(fn), slot)
	o := b.Alloca("o", obj)
	fpRaw := b.Load(b.Cast(slot, mir.Ptr(mir.Ptr(objSig))))
	b.ICall(fpRaw, objSig, o)
	b.Ret(mir.ConstInt(0))
	mod.Finalize()

	clang := instrument(t, mod, ClangCFI, DefaultOptions())
	cfg := clang.VMConfig()
	cfg.ContinueOnViolation = true
	p, err := vm.NewProcess(clang.Mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := p.Run("main")
	if res.Violations == 0 {
		t.Error("Clang CFI did not flag the decayed call (expected false positive)")
	}

	hq := instrument(t, mod, HQSfeStk, DefaultOptions())
	resHQ, _ := launch(t, hq, "main")
	if resHQ.Killed || resHQ.Err != nil {
		t.Errorf("HQ flagged a benign decayed call: killed=%t err=%v", resHQ.Killed, resHQ.Err)
	}
}

func TestCCFIInstrumentation(t *testing.T) {
	ins := instrument(t, buildVictim(false), CCFI, DefaultOptions())
	if ins.Stats.MACSites < 2 {
		t.Errorf("MACSites = %d, want >= 2 (store + load)", ins.Stats.MACSites)
	}
	if !ins.X87Fallback {
		t.Error("CCFI must set the x87 fallback flag")
	}
	if ins.Placement != vm.PlaceRegular {
		t.Error("CCFI keeps return slots in frames (MAC-protected)")
	}
	// CCFI blocks the attack: corrupted pointer fails its MAC.
	atk := instrument(t, buildVictim(true), CCFI, DefaultOptions())
	cfg := atk.VMConfig()
	p, err := vm.NewProcess(atk.Mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := p.Run("main")
	if res.ExploitMarker {
		t.Error("CCFI failed to block pointer corruption")
	}
}

func TestCPIInstrumentationAndProtection(t *testing.T) {
	ins := instrument(t, buildVictim(false), CPI, DefaultOptions())
	if ins.Stats.SafeStoreSites < 2 {
		t.Errorf("SafeStoreSites = %d, want >= 2", ins.Stats.SafeStoreSites)
	}
	if ins.Placement != vm.PlaceSafeAdjacent {
		t.Error("CPI must use the unguarded safe stack")
	}
	// The attack corrupts raw memory; CPI dispatch reads the safe store,
	// so the program computes the correct result and no exploit runs.
	atk := instrument(t, buildVictim(true), CPI, DefaultOptions())
	p, err := vm.NewProcess(atk.Mod, atk.VMConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := p.Run("main")
	if res.ExploitMarker {
		t.Error("CPI failed to neutralize the corruption")
	}
	if len(res.Output) != 1 || res.Output[0] != 42 {
		t.Errorf("CPI output = %v, want [42]", res.Output)
	}
}

func TestCPICrashesOnDecayedPointerPattern(t *testing.T) {
	// The CPI prototype bug (§5.1): a pointer stored through its real
	// type (redirected + poisoned) but loaded through a decayed type
	// (missed) reads the poison and crashes.
	mod := mir.NewModule("cpibug")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.Void)
	fn := b.Func("fn", sig)
	b.Ret(nil)
	slot := b.Global("cb", mir.Ptr(sig), "data")
	b.Func("main", mir.FuncType(mir.I64))
	b.Store(b.FuncAddr(fn), slot)                 // typed store: redirected, raw poisoned
	raw := b.Load(b.Cast(slot, mir.Ptr(mir.I64))) // decayed load: missed
	b.ICall(b.Cast(raw, mir.Ptr(sig)), sig)
	b.Ret(mir.ConstInt(0))
	mod.Finalize()

	cpi := instrument(t, mod, CPI, DefaultOptions())
	p, err := vm.NewProcess(cpi.Mod, cpi.VMConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := p.Run("main")
	if res.Err == nil {
		t.Error("CPI's missed redirect should crash on the poisoned pointer")
	}

	// HQ handles the same program fine (decay-aware detection).
	hq := instrument(t, mod, HQSfeStk, DefaultOptions())
	resHQ, _ := launch(t, hq, "main")
	if resHQ.Err != nil || resHQ.Killed {
		t.Errorf("HQ broke on decayed pattern: err=%v killed=%t", resHQ.Err, resHQ.Killed)
	}
}

func TestInstrumentationPreservesOriginalModule(t *testing.T) {
	mod := buildVictim(false)
	before := mod.String()
	for _, d := range allDesigns {
		instrument(t, mod, d, DefaultOptions())
	}
	if mod.String() != before {
		t.Error("Instrument mutated the input module")
	}
}

func TestReadOnlySyncElision(t *testing.T) {
	// A program mixing read-only (stat-like) and effectful system calls:
	// with the §5.3.3 optimization, only the effectful ones keep their
	// synchronization messages, and the program still runs gated.
	mod := mir.NewModule("rosync")
	b := mir.NewBuilder(mod)
	b.Func("main", mir.FuncType(mir.I64))
	b.Syscall(vm.SysNop)  // read-only
	b.Syscall(vm.SysNop)  // read-only
	b.Syscall(vm.SysSend) // effectful
	b.Syscall(vm.SysWrite, mir.ConstInt(7))
	b.Syscall(vm.SysExit, mir.ConstInt(0))
	b.Ret(mir.ConstInt(0))
	mod.Finalize()

	plain := instrument(t, mod, HQSfeStk, DefaultOptions())
	if plain.Stats.SyscallSyncs != 5 || plain.Stats.SyncsElided != 0 {
		t.Errorf("default: syncs=%d elided=%d, want 5/0",
			plain.Stats.SyscallSyncs, plain.Stats.SyncsElided)
	}

	opts := DefaultOptions()
	opts.ElideReadOnlySyncs = true
	elided := instrument(t, mod, HQSfeStk, opts)
	if elided.Stats.SyscallSyncs != 3 || elided.Stats.SyncsElided != 2 {
		t.Errorf("elided: syncs=%d elided=%d, want 3/2",
			elided.Stats.SyscallSyncs, elided.Stats.SyncsElided)
	}
	if !elided.ElideReadOnlyGates {
		t.Error("runtime gate elision flag not set")
	}
	// Both variants run clean under full gating.
	for _, ins := range []*Instrumented{plain, elided} {
		res, _ := launch(t, ins, "main")
		if res.Err != nil || res.Killed {
			t.Errorf("run failed: err=%v killed=%t (%s)", res.Err, res.Killed, res.KillReason)
		}
		if len(res.Output) != 1 || res.Output[0] != 7 {
			t.Errorf("output = %v", res.Output)
		}
	}
	// Fewer messages with the optimization.
	r1, _ := launch(t, plain, "main")
	r2, _ := launch(t, elided, "main")
	if r2.Stats.Messages >= r1.Stats.Messages {
		t.Errorf("elision did not reduce messages: %d vs %d",
			r2.Stats.Messages, r1.Stats.Messages)
	}
}

func TestMemSafetyInstrumentation(t *testing.T) {
	mod := mir.NewModule("ms")
	b := mir.NewBuilder(mod)
	b.Func("main", mir.FuncType(mir.I64))
	p := b.Malloc(mir.ConstInt(32))
	w := b.Cast(p, mir.Ptr(mir.I64))
	b.Store(mir.ConstInt(5), w)
	v := b.Load(w)
	b.Free(p)
	b.Ret(v)
	mod.Finalize()

	opts := DefaultOptions()
	opts.MemSafety = true
	ins := instrument(t, mod, HQSfeStk, opts)
	res, v2 := launch(t, ins, "main")
	if res.Err != nil || res.Killed {
		t.Fatalf("benign memsafety run: err=%v killed=%t (%s)", res.Err, res.Killed, res.KillReason)
	}
	_ = v2
	if res.ExitCode != 5 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}
