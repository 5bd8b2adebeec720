package analysis

import (
	"testing"

	"herqules/internal/mir"
)

// buildDiamond constructs:
//
//	   entry
//	   /   \
//	left   right
//	   \   /
//	   merge
//	     |
//	    exit
func buildDiamond(t *testing.T) (*mir.Module, *mir.Func) {
	t.Helper()
	mod := mir.NewModule("diamond")
	b := mir.NewBuilder(mod)
	f := b.Func("f", mir.FuncType(mir.I64, mir.I64), "x")
	left := b.Block("left")
	right := b.Block("right")
	merge := b.Block("merge")
	exit := b.Block("exit")

	cond := b.Cmp(mir.CmpLt, f.Params[0], mir.ConstInt(10))
	b.CondBr(cond, left, right)
	b.SetBlock(left)
	l := b.Add(f.Params[0], mir.ConstInt(1))
	b.Br(merge)
	b.SetBlock(right)
	r := b.Mul(f.Params[0], mir.ConstInt(2))
	b.Br(merge)
	b.SetBlock(merge)
	v := b.Phi(mir.I64, l, left, r, right)
	b.Br(exit)
	b.SetBlock(exit)
	b.Ret(v)

	mod.Finalize()
	if err := mir.Validate(mod); err != nil {
		t.Fatal(err)
	}
	return mod, f
}

func TestCFGReversePostorder(t *testing.T) {
	_, f := buildDiamond(t)
	c := NewCFG(f)
	if len(c.RPO) != 5 {
		t.Fatalf("RPO has %d blocks, want 5", len(c.RPO))
	}
	if c.RPO[0] != f.Entry() {
		t.Error("RPO does not start at entry")
	}
	// Entry before left/right before merge before exit.
	num := c.RPONum
	entry, left, right, merge, exit := f.Blocks[0], f.Blocks[1], f.Blocks[2], f.Blocks[3], f.Blocks[4]
	if !(num[entry] < num[left] && num[entry] < num[right] &&
		num[left] < num[merge] && num[right] < num[merge] && num[merge] < num[exit]) {
		t.Errorf("RPO ordering wrong: %v", num)
	}
	if got := len(c.Preds[merge]); got != 2 {
		t.Errorf("merge preds = %d, want 2", got)
	}
}

func TestDominatorsDiamond(t *testing.T) {
	_, f := buildDiamond(t)
	c := NewCFG(f)
	dom := Dominators(c)
	entry, left, right, merge, exit := f.Blocks[0], f.Blocks[1], f.Blocks[2], f.Blocks[3], f.Blocks[4]

	if dom.Idom[left] != entry || dom.Idom[right] != entry {
		t.Error("branch blocks not dominated by entry")
	}
	if dom.Idom[merge] != entry {
		t.Errorf("idom(merge) = %v, want entry (neither branch dominates it)", dom.Idom[merge])
	}
	if dom.Idom[exit] != merge {
		t.Errorf("idom(exit) = %v, want merge", dom.Idom[exit])
	}
	if !dom.Dominates(entry, exit) {
		t.Error("entry must dominate exit")
	}
	if dom.Dominates(left, merge) {
		t.Error("left must not dominate merge")
	}
	if !dom.Dominates(merge, merge) {
		t.Error("dominance must be reflexive")
	}
}

func TestDominatorsWithLoop(t *testing.T) {
	mod := mir.NewModule("loop")
	b := mir.NewBuilder(mod)
	f := b.Func("f", mir.FuncType(mir.I64))
	entry := b.Blk
	header := b.Block("header")
	body := b.Block("body")
	exit := b.Block("exit")
	b.Br(header)
	b.SetBlock(header)
	i := b.Phi(mir.I64, mir.ConstInt(0), entry)
	b.CondBr(b.Cmp(mir.CmpLt, i, mir.ConstInt(10)), body, exit)
	b.SetBlock(body)
	i1 := b.Add(i, mir.ConstInt(1))
	i.Args = append(i.Args, i1)
	i.PhiBlocks = append(i.PhiBlocks, body)
	b.Br(header)
	b.SetBlock(exit)
	b.Ret(i)
	mod.Finalize()
	if err := mir.Validate(mod); err != nil {
		t.Fatal(err)
	}

	c := NewCFG(f)
	dom := Dominators(c)
	if dom.Idom[header] != entry || dom.Idom[body] != header || dom.Idom[exit] != header {
		t.Errorf("loop dominators wrong: %v", dom.Idom)
	}
}

func TestDominatesInstr(t *testing.T) {
	_, f := buildDiamond(t)
	c := NewCFG(f)
	dom := Dominators(c)
	entry := f.Blocks[0]
	first := entry.Instrs[0]
	second := entry.Instrs[1]
	if !dom.DominatesInstr(first, second) {
		t.Error("earlier instruction must dominate later in same block")
	}
	if dom.DominatesInstr(second, first) {
		t.Error("later instruction must not dominate earlier")
	}
	mergeInstr := f.Blocks[3].Instrs[0]
	if !dom.DominatesInstr(first, mergeInstr) {
		t.Error("entry instruction must dominate merge instruction")
	}
	if dom.DominatesInstr(mergeInstr, first) {
		t.Error("merge instruction must not dominate entry instruction")
	}
}

func TestDetectFuncPtrsThroughCastAndPhi(t *testing.T) {
	mod := mir.NewModule("fp")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.Void)
	callee := b.Func("callee", sig)
	b.Ret(nil)

	f := b.Func("f", mir.FuncType(mir.Void, mir.I64), "c")
	entry := b.Blk
	then := b.Block("then")
	done := b.Block("done")

	// Decay: function pointer cast to void* — clause 1 must keep tracking.
	fp := b.FuncAddr(callee)
	decayed := b.Cast(fp, mir.Ptr(mir.I8))
	b.CondBr(f.Params[0], then, done)

	b.SetBlock(then)
	other := b.Cast(&mir.Const{Typ: mir.Ptr(mir.I8)}, mir.Ptr(mir.I8))
	b.Br(done)

	b.SetBlock(done)
	merged := b.Phi(mir.Ptr(mir.I8), decayed, entry, other, then)
	// Cast back to function pointer and call — clause 2 marks the source.
	back := b.Cast(merged, mir.Ptr(sig))
	b.ICall(back, sig)
	b.Ret(nil)
	mod.Finalize()
	if err := mir.Validate(mod); err != nil {
		t.Fatal(err)
	}

	info := DetectFuncPtrs(mod)
	if !info.Values[decayed] {
		t.Error("decayed cast of function pointer not detected (clause 1)")
	}
	if !info.Values[merged] {
		t.Error("phi merging a function pointer not detected")
	}
	if !info.Values[back] {
		t.Error("re-cast to function pointer not detected")
	}
}

func TestDetectFuncPtrsBackwardFromCast(t *testing.T) {
	// A generic pointer later cast to a function pointer must be flagged
	// retroactively (clause 2), even when nothing of funcptr type flowed in.
	mod := mir.NewModule("fp2")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.Void)
	f := b.Func("f", mir.FuncType(mir.Void, mir.Ptr(mir.I8)), "p")
	asFn := b.Cast(f.Params[0], mir.Ptr(sig))
	b.ICall(asFn, sig)
	b.Ret(nil)
	mod.Finalize()

	info := DetectFuncPtrs(mod)
	if !info.Values[f.Params[0]] {
		t.Error("generic pointer later cast to funcptr not flagged")
	}
}

func TestFuncPtrStoreLoadClassification(t *testing.T) {
	mod := mir.NewModule("fp3")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.Void)
	callee := b.Func("callee", sig)
	b.Ret(nil)
	b.Func("f", mir.FuncType(mir.Void))
	slot := b.Alloca("fp", mir.Ptr(sig))
	intSlot := b.Alloca("n", mir.I64)
	st := b.Store(b.FuncAddr(callee), slot)
	stInt := b.Store(mir.ConstInt(7), intSlot)
	ld := b.Load(slot)
	ldInt := b.Load(intSlot)
	b.ICall(ld, sig)
	_ = ldInt
	b.Ret(nil)
	mod.Finalize()

	info := DetectFuncPtrs(mod)
	if !info.IsFuncPtrStore(st) {
		t.Error("function-pointer store not classified")
	}
	if info.IsFuncPtrStore(stInt) {
		t.Error("integer store misclassified as function-pointer store")
	}
	if !info.IsFuncPtrLoad(ld) {
		t.Error("function-pointer load not classified")
	}
	if info.IsFuncPtrLoad(ldInt) {
		t.Error("integer load misclassified")
	}
}

func TestEscapeAnalysis(t *testing.T) {
	mod := mir.NewModule("esc")
	b := mir.NewBuilder(mod)
	sink := b.Func("sink", mir.FuncType(mir.Void, mir.Ptr(mir.I64)), "p")
	b.Ret(nil)

	f := b.Func("f", mir.FuncType(mir.I64))
	local := b.Alloca("local", mir.I64)   // never escapes
	passed := b.Alloca("passed", mir.I64) // escapes via call
	stored := b.Alloca("stored", mir.I64) // escapes via store of address
	slot := b.Alloca("slot", mir.Ptr(mir.I64))
	strct := b.Alloca("s", mir.StructType("pair", mir.I64, mir.I64))
	idxd := b.Alloca("arr", mir.ArrayType(mir.I64, 4))

	b.Store(mir.ConstInt(1), local)
	b.Call(sink, passed)
	b.Store(stored, slot)
	fa := b.FieldAddr(strct, 1) // constant field offset: still tracked
	b.Store(mir.ConstInt(2), fa)
	// Variable index: conservative escape.
	v := b.Load(local)
	ia := b.IndexAddr(idxd, v)
	b.Store(mir.ConstInt(3), ia)
	b.Ret(b.Load(local))
	mod.Finalize()
	if err := mir.Validate(mod); err != nil {
		t.Fatal(err)
	}

	info := EscapeAnalysis(f)
	tests := []struct {
		alloca *mir.Instr
		want   bool
		name   string
	}{
		{local, false, "local"},
		{passed, true, "passed-to-call"},
		{stored, true, "address-stored"},
		{strct, false, "constant-field-access"},
		{idxd, true, "variable-indexed"},
	}
	for _, tt := range tests {
		if got := info.Escapes[tt.alloca]; got != tt.want {
			t.Errorf("escape(%s) = %t, want %t", tt.name, got, tt.want)
		}
	}
}

func TestAddrRoots(t *testing.T) {
	mod := mir.NewModule("roots")
	b := mir.NewBuilder(mod)
	b.Func("f", mir.FuncType(mir.Void))
	s := b.Alloca("s", mir.StructType("pair", mir.I64, mir.I64))
	fa := b.FieldAddr(s, 1)
	arr := b.Alloca("a", mir.ArrayType(mir.I64, 8))
	ia := b.IndexAddr(arr, mir.ConstInt(3))
	b.Store(mir.ConstInt(0), fa)
	b.Store(mir.ConstInt(0), ia)
	b.Ret(nil)
	mod.Finalize()

	roots := AddrRoots(b.Fn)
	if roots[fa] != s {
		t.Error("field address not rooted at its alloca")
	}
	if roots[ia] != arr {
		t.Error("constant-indexed address not rooted at its alloca")
	}
}

func TestCallGraph(t *testing.T) {
	mod := mir.NewModule("cg")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.Void)

	leaf := b.Func("leaf", sig)
	b.Ret(nil)
	mid := b.Func("mid", sig)
	b.Call(leaf)
	b.Ret(nil)
	rec := b.Func("rec", mir.FuncType(mir.Void, mir.I64), "n")
	then := b.Block("then")
	done := b.Block("done")
	b.CondBr(rec.Params[0], then, done)
	b.SetBlock(then)
	b.Call(rec, b.Sub(rec.Params[0], mir.ConstInt(1)))
	b.Br(done)
	b.SetBlock(done)
	b.Ret(nil)
	main := b.Func("main", sig)
	b.Call(mid)
	fp := b.FuncAddr(leaf)
	b.ICall(fp, sig)
	b.Ret(nil)
	mod.Finalize()
	if err := mir.Validate(mod); err != nil {
		t.Fatal(err)
	}

	cg := BuildCallGraph(mod)
	if !cg.Callees[main][mid] || !cg.Callees[mid][leaf] {
		t.Error("direct edges missing")
	}
	if !cg.Callees[main][leaf] {
		t.Error("indirect edge to address-taken signature-matching leaf missing")
	}
	if !cg.MayRecurse(rec) {
		t.Error("self-recursive function not detected")
	}
	if cg.MayRecurse(leaf) {
		t.Error("leaf misreported as recursive")
	}
	if cg.Callers[leaf] == nil || !cg.Callers[leaf][mid] {
		t.Error("reverse edge missing")
	}
}

func TestUniqueCallers(t *testing.T) {
	mod := mir.NewModule("uc")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.Void)
	once := b.Func("once", sig)
	b.Ret(nil)
	twice := b.Func("twice", sig)
	b.Ret(nil)
	taken := b.Func("taken", sig)
	b.Ret(nil)
	b.Func("main", sig)
	site := b.Call(once)
	b.Call(twice)
	b.Call(twice)
	b.Call(taken)
	_ = b.FuncAddr(taken)
	b.Ret(nil)
	mod.Finalize()

	if got := UniqueCallers(mod, once); got != site {
		t.Error("unique call site not found")
	}
	if UniqueCallers(mod, twice) != nil {
		t.Error("multiple call sites reported as unique")
	}
	if UniqueCallers(mod, taken) != nil {
		t.Error("address-taken function reported as unique")
	}
}
