// Package compiler implements the instrumentation passes of the HerQules
// case study (§3.2, §4.1.4, §4.1.6) over MIR, plus faithful reimplementations
// of the baseline designs the paper compares against: Clang/LLVM CFI
// (type-class checks + guarded safe stack), CCFI (per-pointer MACs) and CPI
// (safe-store relocation + unguarded safe stack). Each design is a pass
// pipeline that rewrites a cloned module and reports the VM configuration
// (return-slot placement, runtime quirks) that its runtime requires.
package compiler

import (
	"fmt"

	"herqules/internal/mir"
	"herqules/internal/vm"
)

// Design identifies a control-flow-integrity design from Table 3.
type Design int

// Designs under evaluation.
const (
	// Baseline is the uninstrumented program.
	Baseline Design = iota
	// HQSfeStk is HQ-CFI-SfeStk: forward-edge pointer-integrity messages
	// plus a guarded safe stack for return pointers (§4.1.5).
	HQSfeStk
	// HQRetPtr is HQ-CFI-RetPtr: forward-edge messages plus
	// define/check-invalidate messages on return pointers — fully
	// precise, no information hiding (§4.1.5).
	HQRetPtr
	// ClangCFI is modern Clang/LLVM CFI: per-icall type-class checks and
	// a guarded safe stack.
	ClangCFI
	// CCFI is Cryptographically-Enforced CFI: AES-MAC tags on every
	// control-flow pointer, including return addresses.
	CCFI
	// CPI is Code-Pointer Integrity: code pointers relocated to a safe
	// store; return addresses on an unguarded safe stack.
	CPI
)

var designNames = [...]string{
	Baseline: "Baseline",
	HQSfeStk: "HQ-CFI-SfeStk",
	HQRetPtr: "HQ-CFI-RetPtr",
	ClangCFI: "Clang/LLVM CFI",
	CCFI:     "CCFI",
	CPI:      "CPI",
}

func (d Design) String() string {
	if int(d) < len(designNames) {
		return designNames[d]
	}
	return fmt.Sprintf("design(%d)", int(d))
}

// IsHQ reports whether the design uses HerQules messaging.
func (d Design) IsHQ() bool { return d == HQSfeStk || d == HQRetPtr }

// Options tune the HQ pass pipeline (§4.1.4).
type Options struct {
	// Optimize enables store-to-load forwarding and message elision.
	Optimize bool
	// InterProcForwarding additionally forwards checked loads across
	// unique call paths, inserting runtime recursion guards where the
	// call graph cannot rule out reentry.
	InterProcForwarding bool
	// Devirtualize enables the C++ devirtualization bundle (virtual
	// pointer invariance, whole-program devirtualization).
	Devirtualize bool
	// StrictSubtype elides instrumentation on block memory operations
	// whose static types cannot contain control-flow pointers. Functions
	// in Allowlist are always instrumented regardless (the paper's
	// workaround for inter-procedurally decayed pointers).
	StrictSubtype bool
	// Allowlist names functions whose block operations are always
	// instrumented under StrictSubtype.
	Allowlist []string
	// MemSafety additionally instruments the memory-safety policy
	// (§4.2): allocation create/check/destroy messages.
	MemSafety bool
	// ElideReadOnlySyncs skips synchronization messages (and kernel
	// gating) for system calls with no external side effects — the
	// future-work optimization of §5.3.3. Off by default, matching the
	// paper's prototype.
	ElideReadOnlySyncs bool
	// DFI additionally instruments the data-flow integrity policy (§4.3):
	// store-identity announcements and reaching-writer checks on loads
	// from statically trackable locations.
	DFI bool
}

// DefaultOptions returns the paper's default configuration: all
// optimizations on, strict subtype checking with an empty allowlist.
func DefaultOptions() Options {
	return Options{
		Optimize:            true,
		InterProcForwarding: true,
		Devirtualize:        true,
		StrictSubtype:       true,
	}
}

// Stats counts what a pipeline did, for ablation reporting.
type Stats struct {
	Defines        int // Pointer-Define sites inserted
	Checks         int // Pointer-Check sites inserted
	Invalidates    int // Pointer-Invalidate / block-invalidate sites
	BlockOps       int // instrumented block memory operations
	BlockOpsElided int // block ops skipped by strict subtype checking
	SyscallSyncs   int // System-Call message sites
	SyncsElided    int // sync sites skipped for read-only system calls
	RetProtected   int // functions with return-pointer protection
	ChecksElided   int // checks removed by store-to-load forwarding
	MsgsElided     int // defines/invalidates removed by elision
	Devirtualized  int // indirect calls converted to direct
	Guards         int // recursion guards inserted
	TypeChecks     int // Clang-CFI class checks inserted
	MACSites       int // CCFI MAC store/check sites
	SafeStoreSites int // CPI redirected loads/stores
	DFISets        int // DFI store announcements inserted
	DFIChecks      int // DFI load checks inserted
}

// Instrumented is the output of a pipeline: a rewritten module plus the VM
// configuration its runtime needs.
type Instrumented struct {
	Design Design
	Mod    *mir.Module
	Stats  Stats

	// Placement is the return-slot strategy the VM must use.
	Placement vm.RetSlotPlacement
	// X87Fallback marks CCFI's reserved-register FP fallback.
	X87Fallback bool
	// EmitGlobalDefines makes the loader register global control-flow
	// pointers with the verifier.
	EmitGlobalDefines bool
	// MACGlobals / SafeStoreGlobals request the loader-side startup
	// registration CCFI and CPI perform for static initializers.
	MACGlobals       bool
	SafeStoreGlobals bool
	// ElideReadOnlyGates mirrors Options.ElideReadOnlySyncs at runtime.
	ElideReadOnlyGates bool
}

// Instrument applies design's pipeline to a clone of mod.
func Instrument(mod *mir.Module, design Design, opts Options) (*Instrumented, error) {
	out := &Instrumented{Design: design, Mod: mod.Clone()}
	switch design {
	case Baseline:
		out.Placement = vm.PlaceRegular
	case HQSfeStk:
		out.Placement = vm.PlaceSafeGuarded
		out.EmitGlobalDefines = true
		instrumentHQ(out, opts, false)
		markSafeSlots(out)
	case HQRetPtr:
		out.Placement = vm.PlaceRegular
		out.EmitGlobalDefines = true
		instrumentHQ(out, opts, true)
	case ClangCFI:
		out.Placement = vm.PlaceSafeGuarded
		instrumentClangCFI(out, opts)
		markSafeSlots(out)
	case CCFI:
		out.Placement = vm.PlaceRegular
		out.X87Fallback = true
		out.MACGlobals = true
		instrumentCCFI(out)
	case CPI:
		out.Placement = vm.PlaceSafeAdjacent
		out.SafeStoreGlobals = true
		instrumentCPI(out)
		markSafeSlots(out)
	default:
		return nil, fmt.Errorf("compiler: unknown design %d", design)
	}
	out.Mod.Finalize()
	if err := mir.Validate(out.Mod); err != nil {
		return nil, fmt.Errorf("compiler: %s pipeline produced invalid IR: %w", design, err)
	}
	return out, nil
}

// VMConfig builds the base VM configuration for this instrumented module.
// The caller fills in the messaging, kernel and cost fields.
func (ins *Instrumented) VMConfig() vm.Config {
	return vm.Config{
		Placement:          ins.Placement,
		X87Fallback:        ins.X87Fallback,
		EmitGlobalDefines:  ins.EmitGlobalDefines,
		MACGlobals:         ins.MACGlobals,
		SafeStoreGlobals:   ins.SafeStoreGlobals,
		ElideReadOnlyGates: ins.ElideReadOnlyGates,
	}
}
