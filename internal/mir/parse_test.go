package mir

import (
	"strings"
	"testing"
)

// roundTrip asserts print→parse→print is a fixed point.
func roundTrip(t *testing.T, mod *Module) *Module {
	t.Helper()
	text := mod.String()
	parsed, err := ParseModule(text)
	if err != nil {
		t.Fatalf("ParseModule: %v\n--- input ---\n%s", err, text)
	}
	if got := parsed.String(); got != text {
		t.Fatalf("round trip not a fixed point:\n--- original ---\n%s\n--- reparsed ---\n%s", text, got)
	}
	return parsed
}

func TestParseHandWritten(t *testing.T) {
	src := `module hello
global @counter : i64 [data] init { 41 }

func @bump(%x: i64) -> i64 {
entry:
  %v = add %x, 1 : i64
  ret %v
}

func @main() -> i64 {
entry:
  %c = load @counter : i64
  %r = call @bump(%c) : i64
  store %r, @counter
  ret %r
}
`
	mod, err := ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Name != "hello" {
		t.Errorf("module name %q", mod.Name)
	}
	if mod.Func("bump") == nil || mod.Func("main") == nil {
		t.Fatal("functions missing")
	}
	if len(mod.Globals) != 1 || mod.Globals[0].InitWords[0] != 41 {
		t.Errorf("global init wrong: %+v", mod.Globals[0])
	}
	roundTrip(t, mod)
}

func TestParseRoundTripLoop(t *testing.T) {
	mod, _ := buildLoop(t) // the Figure 2 loop with phis and an icall
	parsed := roundTrip(t, mod)
	// Structural checks on the reparsed module.
	f := parsed.Func("count_sorted")
	if f == nil {
		t.Fatal("count_sorted missing")
	}
	if len(f.Blocks) != 4 {
		t.Errorf("blocks = %d", len(f.Blocks))
	}
	if !parsed.Func("less").AddressTaken {
		t.Error("address-taken attribute lost")
	}
}

func TestParseRoundTripAllInstructionKinds(t *testing.T) {
	mod := NewModule("kinds")
	b := NewBuilder(mod)
	sig := FuncType(I64, I64)
	pair := StructType("pair", I64, Ptr(sig))
	vt := VTableType(sig, 2)

	callee := b.Func("callee", sig, "x")
	b.Ret(callee.Params[0])

	intr := NewFunc("libm.sqrt", FuncType(I64, I64), "x")
	intr.Intrinsic = true
	mod.AddFunc(intr)

	g := b.Global("vt", vt, "data")
	g.ReadOnly = true
	g.InitFuncs[0] = callee
	g.InitFuncs[1] = callee

	f := b.Func("main", FuncType(I64, I64), "n")
	s := b.Alloca("s", pair)
	safe := b.Alloca("safeint", I64)
	safe.SafeSlot = true
	arr := b.Alloca("arr", ArrayType(I8, 32))
	fa := b.FieldAddr(s, 1)
	b.Store(b.FuncAddr(callee), fa)
	fp := b.Load(fa)
	fp.Volatile = true
	r := b.ICall(fp, sig, f.Params[0])
	hp := b.Malloc(ConstInt(64))
	hp2 := b.Realloc(hp, ConstInt(128))
	b.Memcpy(b.Cast(arr, Ptr(I8)), hp2, ConstInt(16))
	b.Memmove(hp2, hp2, ConstInt(8))
	b.Memset(hp2, ConstInt(0), ConstInt(8))
	b.Free(hp2)
	sq := b.Call(intr, r)
	cmp := b.Cmp(CmpGe, sq, ConstInt(2))
	then := b.Block("then")
	done := b.Block("done")
	b.CondBr(cmp, then, done)
	b.SetBlock(then)
	sync := b.Runtime(RTSyscallSync)
	sync.SyscallNo = 60
	b.Syscall(60, ConstInt(0))
	chk := b.Runtime(RTClangCFICheck, fp)
	chk.ClassSig = sig.Signature()
	ge := b.Runtime(RTRecursionGuardEnter)
	ge.GuardID = 7
	get := b.Runtime(RTSafeStoreGet, fa)
	get.Typ = Ptr(sig)
	b.Br(done)
	b.SetBlock(done)
	entryBlock := f.Blocks[0]
	ph := b.Phi(I64, r, entryBlock, sq, then)
	b.Store(ConstInt(5), safe)
	b.Ret(b.Bin(BinXor, ph, b.Load(safe)))
	mod.Finalize()
	_ = get
	if err := Validate(mod); err != nil {
		t.Fatal(err)
	}

	parsed := roundTrip(t, mod)

	// Spot-check lossless attributes.
	var foundSafe, foundVolatile, foundSync, foundGuard, foundClass bool
	for _, fn := range parsed.Funcs {
		for _, blk := range fn.Blocks {
			for _, in := range blk.Instrs {
				if in.Op == OpAlloca && in.SafeSlot {
					foundSafe = true
				}
				if in.Op == OpLoad && in.Volatile {
					foundVolatile = true
				}
				if in.RT == RTSyscallSync && in.SyscallNo == 60 {
					foundSync = true
				}
				if in.RT == RTRecursionGuardEnter && in.GuardID == 7 {
					foundGuard = true
				}
				if in.RT == RTClangCFICheck && in.ClassSig == sig.Signature() {
					foundClass = true
				}
			}
		}
	}
	if !foundSafe || !foundVolatile || !foundSync || !foundGuard || !foundClass {
		t.Errorf("lossy attributes: safe=%t volatile=%t sync=%t guard=%t class=%t",
			foundSafe, foundVolatile, foundSync, foundGuard, foundClass)
	}
	if !parsed.Func("libm.sqrt").Intrinsic {
		t.Error("intrinsic attribute lost")
	}
	vtG := parsed.Globals[0]
	if !vtG.Elem.VTable || !vtG.ReadOnly || vtG.InitFuncs[1] != parsed.Func("callee") {
		t.Error("vtable global lost fidelity")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no module":        "func @f() -> void {\nentry:\n  ret\n}\n",
		"bad type":         "module m\nfunc @f() -> wat {\nentry:\n  ret\n}\n",
		"undefined value":  "module m\nfunc @f() -> i64 {\nentry:\n  ret %nope\n}\n",
		"unknown instr":    "module m\nfunc @f() -> void {\nentry:\n  frobnicate 1\n}\n",
		"unknown callee":   "module m\nfunc @f() -> void {\nentry:\n  call @ghost()\n  ret\n}\n",
		"unknown block":    "module m\nfunc @f() -> void {\nentry:\n  br nowhere\n}\n",
		"dup def":          "module m\nfunc @f() -> void {\nentry:\n  %a = add 1, 2 : i64\n  %a = add 1, 2 : i64\n  ret\n}\n",
		"instr before blk": "module m\nfunc @f() -> void {\n  ret\n}\n",
	}
	for name, src := range cases {
		if _, err := ParseModule(src); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestParsedProgramExecutesIdentically(t *testing.T) {
	// The ultimate fidelity check lives in the workload round-trip test;
	// here, confirm a parsed module is structurally identical enough for
	// printing stability across a second cycle.
	mod, _ := buildLoop(t)
	once := roundTrip(t, mod)
	roundTrip(t, once)
}

func TestParseRejectsBadRuntimeExtras(t *testing.T) {
	src := "module m\nfunc @f() -> void {\nentry:\n  hq.syscall_sync[xyz]()\n  ret\n}\n"
	if _, err := ParseModule(src); err == nil || !strings.Contains(err.Error(), "syscall-sync") {
		t.Errorf("bad extra accepted: %v", err)
	}
}
