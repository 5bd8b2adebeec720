package mir

import "fmt"

// Builder provides a fluent API for constructing MIR, used by the synthetic
// workloads, the RIPE exploit generator, and tests.
type Builder struct {
	Mod *Module
	Fn  *Func
	Blk *Block
}

// NewBuilder returns a builder over mod.
func NewBuilder(mod *Module) *Builder { return &Builder{Mod: mod} }

// Func starts a new function and positions the builder at a fresh entry
// block.
func (b *Builder) Func(name string, sig *Type, paramNames ...string) *Func {
	f := NewFunc(name, sig, paramNames...)
	b.Mod.AddFunc(f)
	b.Fn = f
	b.Blk = f.NewBlock("entry")
	return f
}

// Block creates a block in the current function without moving the insertion
// point.
func (b *Builder) Block(name string) *Block { return b.Fn.NewBlock(name) }

// SetBlock moves the insertion point.
func (b *Builder) SetBlock(blk *Block) { b.Blk = blk; b.Fn = blk.Fn }

// emit appends in to the current block.
func (b *Builder) emit(in *Instr) *Instr {
	if b.Blk == nil {
		panic("mir: Builder has no insertion block")
	}
	in.Blk = b.Blk
	b.Blk.Instrs = append(b.Blk.Instrs, in)
	return in
}

// Alloca allocates a stack slot for one value of t.
func (b *Builder) Alloca(name string, t *Type) *Instr {
	return b.emit(&Instr{Op: OpAlloca, Typ: Ptr(t), AllocTy: t, Nm: name})
}

// Load loads through ptr.
func (b *Builder) Load(ptr Value) *Instr {
	pt := ptr.Type()
	if !pt.IsPtr() {
		panic(fmt.Sprintf("mir: Load of non-pointer %s", pt))
	}
	return b.emit(&Instr{Op: OpLoad, Typ: pt.Elem, Args: []Value{ptr}})
}

// Store stores val through ptr.
func (b *Builder) Store(val, ptr Value) *Instr {
	return b.emit(&Instr{Op: OpStore, Args: []Value{val, ptr}})
}

// FieldAddr computes the address of field i of the struct pointed to by ptr.
func (b *Builder) FieldAddr(ptr Value, i int) *Instr {
	st := ptr.Type().Elem
	if st == nil || st.Kind != KindStruct {
		panic(fmt.Sprintf("mir: FieldAddr on %s", ptr.Type()))
	}
	return b.emit(&Instr{Op: OpFieldAddr, Typ: Ptr(st.Fields[i]), Field: i, Args: []Value{ptr}})
}

// IndexAddr computes &ptr[idx] where ptr points at an array or acts as a
// raw element pointer.
func (b *Builder) IndexAddr(ptr, idx Value) *Instr {
	pt := ptr.Type()
	var elem *Type
	switch {
	case pt.IsPtr() && pt.Elem.Kind == KindArray:
		elem = pt.Elem.Elem
	case pt.IsPtr():
		elem = pt.Elem
	default:
		panic(fmt.Sprintf("mir: IndexAddr on %s", pt))
	}
	return b.emit(&Instr{Op: OpIndexAddr, Typ: Ptr(elem), Args: []Value{ptr, idx}})
}

// Bin emits a binary arithmetic instruction.
func (b *Builder) Bin(k BinKind, x, y Value) *Instr {
	return b.emit(&Instr{Op: OpBin, Typ: x.Type(), Bin: k, Args: []Value{x, y}})
}

// Add emits x + y.
func (b *Builder) Add(x, y Value) *Instr { return b.Bin(BinAdd, x, y) }

// Sub emits x - y.
func (b *Builder) Sub(x, y Value) *Instr { return b.Bin(BinSub, x, y) }

// Mul emits x * y.
func (b *Builder) Mul(x, y Value) *Instr { return b.Bin(BinMul, x, y) }

// Cmp emits a comparison producing 0 or 1 as i64.
func (b *Builder) Cmp(k CmpKind, x, y Value) *Instr {
	return b.emit(&Instr{Op: OpCmp, Typ: I64, Cmp: k, Args: []Value{x, y}})
}

// Cast reinterprets v as type t (pointer/integer casts, pointer decay). The
// function-pointer detection analysis tracks values through casts (§4.1.4).
func (b *Builder) Cast(v Value, t *Type) *Instr {
	return b.emit(&Instr{Op: OpCast, Typ: t, Args: []Value{v}})
}

// Call emits a direct call.
func (b *Builder) Call(callee *Func, args ...Value) *Instr {
	return b.emit(&Instr{Op: OpCall, Typ: callee.Sig.Ret, Callee: callee, Args: args})
}

// ICall emits an indirect call through fp, whose static signature is sig.
func (b *Builder) ICall(fp Value, sig *Type, args ...Value) *Instr {
	return b.emit(&Instr{
		Op: OpICall, Typ: sig.Ret, FSig: sig,
		Args: append([]Value{fp}, args...),
	})
}

// Ret emits a return; v may be nil for void.
func (b *Builder) Ret(v Value) *Instr {
	in := &Instr{Op: OpRet}
	if v != nil {
		in.Args = []Value{v}
	}
	return b.emit(in)
}

// Br emits an unconditional branch.
func (b *Builder) Br(target *Block) *Instr {
	return b.emit(&Instr{Op: OpBr, Targets: []*Block{target}})
}

// CondBr branches to then when cond != 0, otherwise to els.
func (b *Builder) CondBr(cond Value, then, els *Block) *Instr {
	return b.emit(&Instr{Op: OpCondBr, Args: []Value{cond}, Targets: []*Block{then, els}})
}

// Phi emits a phi node; pairs alternate (value, block).
func (b *Builder) Phi(t *Type, pairs ...interface{}) *Instr {
	in := &Instr{Op: OpPhi, Typ: t}
	for i := 0; i < len(pairs); i += 2 {
		in.Args = append(in.Args, pairs[i].(Value))
		in.PhiBlocks = append(in.PhiBlocks, pairs[i+1].(*Block))
	}
	return b.emit(in)
}

// Malloc allocates size heap bytes.
func (b *Builder) Malloc(size Value) *Instr {
	return b.emit(&Instr{Op: OpMalloc, Typ: Ptr(I8), Args: []Value{size}})
}

// Free releases the heap allocation at ptr.
func (b *Builder) Free(ptr Value) *Instr {
	return b.emit(&Instr{Op: OpFree, Args: []Value{ptr}})
}

// Realloc resizes the heap allocation at ptr.
func (b *Builder) Realloc(ptr, size Value) *Instr {
	return b.emit(&Instr{Op: OpRealloc, Typ: Ptr(I8), Args: []Value{ptr, size}})
}

// Memcpy copies n bytes from src to dst (non-overlapping).
func (b *Builder) Memcpy(dst, src, n Value) *Instr {
	return b.emit(&Instr{Op: OpMemcpy, Args: []Value{dst, src, n}})
}

// Memmove copies n bytes from src to dst (may overlap).
func (b *Builder) Memmove(dst, src, n Value) *Instr {
	return b.emit(&Instr{Op: OpMemmove, Args: []Value{dst, src, n}})
}

// Memset fills n bytes at dst with the low byte of v.
func (b *Builder) Memset(dst, v, n Value) *Instr {
	return b.emit(&Instr{Op: OpMemset, Args: []Value{dst, v, n}})
}

// Syscall emits system call no with args.
func (b *Builder) Syscall(no int, args ...Value) *Instr {
	return b.emit(&Instr{Op: OpSyscall, Typ: I64, SyscallNo: no, Args: args})
}

// Runtime emits a runtime-library call (used by instrumentation passes; also
// available to tests).
func (b *Builder) Runtime(rt RuntimeOp, args ...Value) *Instr {
	return b.emit(&Instr{Op: OpRuntime, RT: rt, Args: args})
}

// Global declares a module global of element type t in segment seg
// ("data" or "bss").
func (b *Builder) Global(name string, t *Type, seg string) *Global {
	g := &Global{Name: name, Elem: t, Segment: seg, InitFuncs: make(map[int]*Func)}
	b.Mod.AddGlobal(g)
	return g
}

// FuncAddr yields the address of fn as a function-pointer value and marks fn
// address-taken.
func (b *Builder) FuncAddr(fn *Func) *FuncRef {
	fn.AddressTaken = true
	return &FuncRef{Fn: fn}
}
