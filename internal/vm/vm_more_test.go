package vm

import (
	"testing"
	"testing/quick"
	"time"

	"herqules/internal/kernel"
	"herqules/internal/mir"
)

func TestBinOpSemantics(t *testing.T) {
	cases := []struct {
		k       mir.BinKind
		x, y, r uint64
		err     bool
	}{
		{mir.BinAdd, 7, 35, 42, false},
		{mir.BinSub, 7, 9, ^uint64(1), false}, // wraps like hardware
		{mir.BinMul, 6, 7, 42, false},
		{mir.BinDiv, 42, 6, 7, false},
		{mir.BinDiv, 1, 0, 0, true},
		{mir.BinRem, 43, 6, 1, false},
		{mir.BinRem, 1, 0, 0, true},
		{mir.BinAnd, 0xf0, 0x3c, 0x30, false},
		{mir.BinOr, 0xf0, 0x0c, 0xfc, false},
		{mir.BinXor, 0xff, 0x0f, 0xf0, false},
		{mir.BinShl, 1, 6, 64, false},
		{mir.BinShl, 1, 64, 1, false}, // shift masked to 6 bits like x86
		{mir.BinShr, 64, 6, 1, false},
	}
	for _, c := range cases {
		got, err := binOp(c.k, c.x, c.y)
		if (err != nil) != c.err {
			t.Errorf("%v(%d,%d): err=%v", c.k, c.x, c.y, err)
			continue
		}
		if !c.err && got != c.r {
			t.Errorf("%v(%d,%d) = %d, want %d", c.k, c.x, c.y, got, c.r)
		}
	}
}

func TestCmpOpSemantics(t *testing.T) {
	type tc struct {
		k       mir.CmpKind
		x, y, r uint64
	}
	cases := []tc{
		{mir.CmpEq, 5, 5, 1}, {mir.CmpEq, 5, 6, 0},
		{mir.CmpNe, 5, 6, 1}, {mir.CmpNe, 5, 5, 0},
		{mir.CmpLt, 5, 6, 1}, {mir.CmpLt, 6, 5, 0},
		{mir.CmpLe, 5, 5, 1}, {mir.CmpLe, 6, 5, 0},
		{mir.CmpGt, 6, 5, 1}, {mir.CmpGt, 5, 6, 0},
		{mir.CmpGe, 5, 5, 1}, {mir.CmpGe, 5, 6, 0},
	}
	for _, c := range cases {
		if got := cmpOp(c.k, c.x, c.y); got != c.r {
			t.Errorf("%v(%d,%d) = %d, want %d", c.k, c.x, c.y, got, c.r)
		}
	}
	// Property: Lt and Ge are complements (unsigned).
	f := func(x, y uint64) bool {
		return cmpOp(mir.CmpLt, x, y)+cmpOp(mir.CmpGe, x, y) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNarrowLoadsAndStores(t *testing.T) {
	// i8/i16/i32 stores and loads must truncate and zero-extend.
	mod := mir.NewModule("narrow")
	b := mir.NewBuilder(mod)
	b.Func("main", mir.FuncType(mir.I64))
	s8 := b.Alloca("b8", mir.I8)
	s16 := b.Alloca("b16", mir.I16)
	s32 := b.Alloca("b32", mir.I32)
	// Store wide values through narrow types.
	v8 := b.Cast(mir.ConstInt(0x1ff), mir.I8)
	b.Store(v8, s8)
	v16 := b.Cast(mir.ConstInt(0x1ffff), mir.I16)
	b.Store(v16, s16)
	v32 := b.Cast(mir.ConstInt(0x1_ffff_ffff), mir.I32)
	b.Store(v32, s32)
	l8 := b.Load(s8)
	l16 := b.Load(s16)
	l32 := b.Load(s32)
	sum := b.Add(b.Add(b.Cast(l8, mir.I64), b.Cast(l16, mir.I64)), b.Cast(l32, mir.I64))
	b.Ret(sum)
	mod.Finalize()

	res, _ := run(t, mod, Config{}, "main")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want := uint64(0xff + 0xffff + 0xffff_ffff)
	if res.ExitCode != want {
		t.Errorf("narrow round trip = %#x, want %#x", res.ExitCode, want)
	}
}

func TestResultCrashedAndAccessors(t *testing.T) {
	mod := mir.NewModule("crash")
	b := mir.NewBuilder(mod)
	fn := b.Func("main", mir.FuncType(mir.I64))
	b.Store(mir.ConstInt(1), &mir.Const{Typ: mir.Ptr(mir.I64), Val: 0x10}) // unmapped
	b.Ret(mir.ConstInt(0))
	mod.Finalize()
	p, err := NewProcess(mod, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := p.Run("main")
	if res.Err == nil {
		t.Error("no error after a fault")
	}
	if p.funcAt[p.FuncAddr(fn)] != fn {
		t.Error("funcAt/FuncAddr disagree")
	}
	if StaticFuncAddr(0) != p.FuncAddr(fn) {
		t.Error("StaticFuncAddr(0) does not match the first function")
	}
}

func TestSafeBaseExposedOnlyUnderSafeStack(t *testing.T) {
	mod := mir.NewModule("sb")
	b := mir.NewBuilder(mod)
	b.Func("main", mir.FuncType(mir.I64))
	b.Ret(mir.ConstInt(0))
	mod.Finalize()
	pReg, _ := NewProcess(mod.Clone(), Config{Placement: PlaceRegular})
	if pReg.safeBase != 0 {
		t.Error("regular placement has a safe region")
	}
	pSafe, _ := NewProcess(mod.Clone(), Config{Placement: PlaceSafeGuarded, Seed: 1})
	pSafe2, _ := NewProcess(mod.Clone(), Config{Placement: PlaceSafeGuarded, Seed: 2})
	if pSafe.safeBase == 0 {
		t.Error("guarded placement missing safe region")
	}
	if pSafe.safeBase == pSafe2.safeBase {
		t.Error("information hiding: different seeds produced the same safe base")
	}
}

func TestReadOnlySyscallClassification(t *testing.T) {
	for _, no := range []int{SysNop, SysRandom, SysFrameRetSlotAddr, SysLeakRetSlotAddr} {
		if !ReadOnlySyscall(no) {
			t.Errorf("syscall %d should be read-only", no)
		}
	}
	for _, no := range []int{SysWrite, SysSend, SysExit, SysMarkExploit} {
		if ReadOnlySyscall(no) {
			t.Errorf("syscall %d must not be read-only", no)
		}
	}
}

func TestElideReadOnlyGatesSkipsKernel(t *testing.T) {
	// With elision on and no sync messages at all, a read-only syscall
	// must pass ungated while an effectful one stalls to the epoch.
	build := func(no int) *mir.Module {
		mod := mir.NewModule("gates")
		b := mir.NewBuilder(mod)
		b.Func("main", mir.FuncType(mir.I64))
		b.Syscall(no)
		b.Ret(mir.ConstInt(0))
		mod.Finalize()
		return mod
	}
	runWith := func(mod *mir.Module) *Result {
		k := kernel.New(nil)
		k.Epoch = 20 * time.Millisecond
		pid := k.Register()
		cfg := Config{
			Kernel: k, PID: pid, ElideReadOnlyGates: true,
			Killed: func() (bool, string) { return k.Killed(pid) },
		}
		p, err := NewProcess(mod, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p.Run("main")
	}
	if res := runWith(build(SysNop)); res.Err != nil || res.Killed {
		t.Errorf("read-only syscall gated: err=%v killed=%t", res.Err, res.Killed)
	}
	if res := runWith(build(SysSend)); !res.Killed {
		t.Error("effectful syscall passed without synchronization")
	}
}

func TestIntrinsicsCoverage(t *testing.T) {
	mod := mir.NewModule("intr")
	b := mir.NewBuilder(mod)
	names := []string{"libm.sin", "libm.exp", "libm.mul", "libm.add", "libm.f2i", "libm.i2f", "ext.unknown"}
	var fns []*mir.Func
	for _, n := range names {
		f := mir.NewFunc(n, mir.FuncType(mir.I64, mir.I64, mir.I64), "a", "b")
		f.Intrinsic = true
		mod.AddFunc(f)
		fns = append(fns, f)
	}
	b.Func("main", mir.FuncType(mir.I64))
	one := b.Call(fns[5], mir.ConstInt(1), mir.ConstInt(0)) // i2f(1)
	v := b.Call(fns[0], one, mir.ConstInt(0))               // sin(1.0)
	v = b.Call(fns[1], v, mir.ConstInt(0))                  // exp(sin(1))
	v = b.Call(fns[2], v, one)                              // *1.0
	v = b.Call(fns[3], v, one)                              // +1.0
	r := b.Call(fns[4], v, mir.ConstInt(0))                 // f2i
	z := b.Call(fns[6], r, mir.ConstInt(0))                 // unknown -> 0
	b.Ret(b.Add(r, z))
	mod.Finalize()

	res, _ := run(t, mod, Config{}, "main")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// exp(sin(1)) + 1 ≈ 3.32 → truncates to 3.
	if res.ExitCode != 3 {
		t.Errorf("intrinsic chain = %d, want 3", res.ExitCode)
	}
}
