// Package mir defines a miniature SSA-form intermediate representation used
// as the substrate for the paper's compiler instrumentation (§3.2, §4.1.4).
// The real HerQules instruments LLVM IR produced from C/C++; this repository
// cannot ship a C toolchain, so workloads, RIPE-style exploit programs and
// examples are constructed directly in MIR, and every instrumentation
// decision the paper describes (where to place define/check/invalidate
// messages, dominator-based syscall-sync placement, store-to-load forwarding,
// message elision, devirtualization) is implemented as a pass over MIR in
// package compiler.
//
// MIR is deliberately LLVM-like: typed SSA values, basic blocks with explicit
// terminators, phi nodes, allocas for mutable stack storage, and block memory
// operations (memcpy/memmove/memset) that the final-lowering pass must
// instrument because they may move control-flow pointers.
package mir

import (
	"fmt"
	"strings"
)

// Kind discriminates MIR types.
type Kind int

// Type kinds.
const (
	KindVoid Kind = iota
	KindInt
	KindPtr
	KindFunc
	KindStruct
	KindArray
)

// Type describes an MIR type. Types are structural except for structs, which
// are nominal (the Name participates in identity) because type-based CFI
// designs (Clang/LLVM CFI, CCFI) build equivalence classes from nominal
// function and class types.
type Type struct {
	Kind   Kind
	Bits   int     // KindInt: width in bits (8, 16, 32, 64)
	Elem   *Type   // KindPtr: pointee; KindArray: element
	Len    int     // KindArray: element count
	Name   string  // KindStruct: nominal name
	Fields []*Type // KindStruct: field types
	Params []*Type // KindFunc: parameter types
	Ret    *Type   // KindFunc: return type
	// VTable marks compiler-generated virtual-method tables (arrays or
	// structs of function pointers that live in read-only memory).
	// Pointers to a VTable type are the "virtual method table pointers"
	// of §4.1.3 — themselves writable and protected — while loads from
	// inside the table need no protection because the table is read-only.
	VTable bool
}

// Cached primitive types.
var (
	Void = &Type{Kind: KindVoid}
	I8   = &Type{Kind: KindInt, Bits: 8}
	I16  = &Type{Kind: KindInt, Bits: 16}
	I32  = &Type{Kind: KindInt, Bits: 32}
	I64  = &Type{Kind: KindInt, Bits: 64}
)

// Ptr returns the pointer type to elem.
func Ptr(elem *Type) *Type { return &Type{Kind: KindPtr, Elem: elem} }

// FuncType returns the function type ret(params...).
func FuncType(ret *Type, params ...*Type) *Type {
	return &Type{Kind: KindFunc, Ret: ret, Params: params}
}

// StructType returns a nominal struct type.
func StructType(name string, fields ...*Type) *Type {
	return &Type{Kind: KindStruct, Name: name, Fields: fields}
}

// ArrayType returns the type of an n-element array of elem.
func ArrayType(elem *Type, n int) *Type {
	return &Type{Kind: KindArray, Elem: elem, Len: n}
}

// VTableType returns an n-slot virtual-method table holding pointers to
// functions of type sig.
func VTableType(sig *Type, n int) *Type {
	return &Type{Kind: KindArray, Elem: Ptr(sig), Len: n, VTable: true}
}

// Size returns the type's size in bytes. Struct fields are laid out in
// order, each aligned to min(its size, 8); the struct itself is padded to
// its alignment.
func (t *Type) Size() uint64 {
	switch t.Kind {
	case KindVoid:
		return 0
	case KindInt:
		return uint64(t.Bits / 8)
	case KindPtr, KindFunc:
		return 8
	case KindArray:
		return uint64(t.Len) * t.Elem.Size()
	case KindStruct:
		var off uint64
		for _, f := range t.Fields {
			off = align(off, f.Align()) + f.Size()
		}
		return align(off, t.Align())
	default:
		panic(fmt.Sprintf("mir: Size of unknown kind %d", t.Kind))
	}
}

// Align returns the type's alignment in bytes.
func (t *Type) Align() uint64 {
	switch t.Kind {
	case KindVoid:
		return 1
	case KindInt:
		return uint64(t.Bits / 8)
	case KindPtr, KindFunc:
		return 8
	case KindArray:
		return t.Elem.Align()
	case KindStruct:
		var a uint64 = 1
		for _, f := range t.Fields {
			if fa := f.Align(); fa > a {
				a = fa
			}
		}
		return a
	default:
		return 1
	}
}

// FieldOffset returns the byte offset of field i within a struct type.
func (t *Type) FieldOffset(i int) uint64 {
	if t.Kind != KindStruct || i >= len(t.Fields) {
		panic(fmt.Sprintf("mir: FieldOffset(%d) on %s", i, t))
	}
	var off uint64
	for j := 0; j <= i; j++ {
		off = align(off, t.Fields[j].Align())
		if j == i {
			return off
		}
		off += t.Fields[j].Size()
	}
	return off
}

// IsFuncPtr reports whether t is a pointer to a function — a direct
// control-flow pointer in the sense of §4.1.3.
func (t *Type) IsFuncPtr() bool {
	return t.Kind == KindPtr && t.Elem != nil && t.Elem.Kind == KindFunc
}

// IsPtr reports whether t is any pointer type.
func (t *Type) IsPtr() bool { return t.Kind == KindPtr }

// IsVTablePtr reports whether t is a pointer to a virtual-method table — an
// indirect control-flow pointer per §4.1.3.
func (t *Type) IsVTablePtr() bool {
	return t.Kind == KindPtr && t.Elem != nil && t.Elem.VTable
}

// IsCtrlPtr reports whether t is any protected control-flow pointer type:
// a direct function pointer or a vtable pointer.
func (t *Type) IsCtrlPtr() bool { return t.IsFuncPtr() || t.IsVTablePtr() }

// ContainsFuncPtr reports whether a value of type t stored in memory may
// contain a control-flow pointer at any offset. The final-lowering pass uses
// this "strict subtype check" to elide instrumentation on block memory
// operations over types that statically cannot hold function pointers
// (§4.1.4, Final Lowering).
func (t *Type) ContainsFuncPtr() bool {
	switch t.Kind {
	case KindPtr:
		return t.IsCtrlPtr()
	case KindArray:
		return t.Elem.ContainsFuncPtr()
	case KindStruct:
		for _, f := range t.Fields {
			if f.ContainsFuncPtr() {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// Equal reports type equality: structural for all kinds except structs,
// which also compare names (nominal typing for CFI equivalence classes).
func (t *Type) Equal(o *Type) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case KindVoid:
		return true
	case KindInt:
		return t.Bits == o.Bits
	case KindPtr:
		return t.Elem.Equal(o.Elem)
	case KindArray:
		return t.Len == o.Len && t.Elem.Equal(o.Elem)
	case KindStruct:
		if t.Name != o.Name || len(t.Fields) != len(o.Fields) {
			return false
		}
		for i := range t.Fields {
			if !t.Fields[i].Equal(o.Fields[i]) {
				return false
			}
		}
		return true
	case KindFunc:
		if !t.Ret.Equal(o.Ret) || len(t.Params) != len(o.Params) {
			return false
		}
		for i := range t.Params {
			if !t.Params[i].Equal(o.Params[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Signature returns a canonical string for a function type, used by
// type-based CFI designs as the equivalence-class key. Two function pointers
// are in the same Clang/LLVM-CFI class iff their Signatures match — which is
// exactly why decayed or casted pointers produce false positives (§5.1).
func (t *Type) Signature() string {
	if t.Kind == KindPtr && t.Elem.Kind == KindFunc {
		t = t.Elem
	}
	if t.Kind != KindFunc {
		return t.String()
	}
	var sb strings.Builder
	sb.WriteString(t.Ret.String())
	sb.WriteByte('(')
	for i, p := range t.Params {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case KindVoid:
		return "void"
	case KindInt:
		return fmt.Sprintf("i%d", t.Bits)
	case KindPtr:
		return t.Elem.String() + "*"
	case KindArray:
		if t.VTable {
			return fmt.Sprintf("vtable[%d x %s]", t.Len, t.Elem)
		}
		return fmt.Sprintf("[%d x %s]", t.Len, t.Elem)
	case KindStruct:
		return "%" + t.Name
	case KindFunc:
		return t.Signature()
	default:
		return fmt.Sprintf("type(%d)", t.Kind)
	}
}

func align(off, a uint64) uint64 {
	if a == 0 {
		return off
	}
	return (off + a - 1) &^ (a - 1)
}
