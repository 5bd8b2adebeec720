// Package herqules is a from-scratch Go reproduction of HerQules (HQ), the
// framework from "HerQules: Securing Programs via Hardware-Enforced Message
// Queues" (ASPLOS 2021): integrity-based execution policies enforced by
// streaming append-only AppendWrite messages from a monitored program to a
// verifier in a separate protection domain, with bounded asynchronous
// validation at system calls.
//
// The package is a facade over the internal substrates:
//
//   - an IR and compiler pipeline implementing the paper's instrumentation
//     (pointer-integrity CFI with store-to-load forwarding, message elision
//     and devirtualization) plus the baseline designs it compares against
//     (Clang/LLVM CFI, CCFI, CPI);
//   - a process virtual machine in which corrupted control transfers are
//     really taken, so attacks and defences are executed rather than
//     assumed;
//   - AppendWrite implementations: an FPGA model, a µarch (ISA-extension)
//     model with MMU-enforced appendable memory regions, and the software
//     primitives of Table 2;
//   - the kernel module and verifier of Figure 1;
//   - the paper's benchmark and exploit suites, and a harness regenerating
//     every table and figure (see cmd/hqbench).
//
// # Quick start
//
// Build a program with NewBuilder, instrument it for a design, and run it
// monitored:
//
//	mod := herqules.NewModule("demo")
//	b := herqules.NewBuilder(mod)
//	... // construct functions (see examples/)
//	ins, err := herqules.Instrument(mod, herqules.HQSfeStk, herqules.DefaultOptions())
//	out, err := herqules.Run(ins, herqules.RunOptions{})
//
// For many programs under one enforcement domain, use a resident System
// (NewSystem / Launch / Shutdown). A System can expose a live observability
// plane — Prometheus /metrics with per-PID attribution and syscall-gate and
// drain stall distributions, /healthz, /procs, /violations, /debug/pprof —
// with WithHTTPAddr; see DESIGN.md's "Observability" section.
//
// # Policy selection
//
// Policies are registered by name (Policies() lists the registry) and
// selected as data rather than constructed in code:
//
//	sys := herqules.NewSystem(herqules.WithPolicies("cfi", "memsafety", "hmac"))
//
// or, for the single-shot path, RunOptions.PolicyNames. A custom factory
// (hand-built sets, unregistered policy implementations) still plugs in
// through WithPolicyFactory or RunOptions.Policies.
package herqules

import (
	"herqules/internal/compiler"
	"herqules/internal/ipc"
	"herqules/internal/policy"
	"herqules/internal/sim"
	"herqules/internal/supervisor"
	"herqules/internal/verifier"
	"herqules/internal/vm"
)

// Design identifies a control-flow-integrity design (Table 3).
type Design = compiler.Design

// The designs under evaluation.
const (
	// Baseline is the uninstrumented program.
	Baseline = compiler.Baseline
	// HQSfeStk is HQ-CFI-SfeStk: pointer-integrity messages for forward
	// edges, a guarded safe stack for return pointers.
	HQSfeStk = compiler.HQSfeStk
	// HQRetPtr is HQ-CFI-RetPtr: fully message-protected, including
	// return pointers.
	HQRetPtr = compiler.HQRetPtr
	// ClangCFI is modern Clang/LLVM CFI.
	ClangCFI = compiler.ClangCFI
	// CCFI is Cryptographically-Enforced CFI.
	CCFI = compiler.CCFI
	// CPI is Code-Pointer Integrity.
	CPI = compiler.CPI
)

// Options tunes the instrumentation pipeline (§4.1.4).
type Options = compiler.Options

// DefaultOptions is the paper's default configuration: all optimizations
// enabled, strict subtype checking.
func DefaultOptions() Options { return compiler.DefaultOptions() }

// Instrumented is a compiled, instrumented program ready to run.
type Instrumented = compiler.Instrumented

// Instrument applies a design's pass pipeline to a clone of mod.
func Instrument(mod *Module, d Design, opts Options) (*Instrumented, error) {
	return compiler.Instrument(mod, d, opts)
}

// RunOptions configures one monitored execution.
type RunOptions struct {
	// Entry is the entry function (default "main"); Args its arguments.
	Entry string
	Args  []uint64

	// Channel, when non-nil, selects concurrent mode over this transport:
	// messages travel through it to a verifier pump goroutine, and system
	// calls genuinely block in the kernel model until the verifier's
	// confirmation arrives. Nil selects deterministic inline delivery:
	// policy decisions land at exactly the same program points on every
	// run. Run takes ownership of the channel: it is closed when the run
	// finishes or fails.
	Channel *Channel

	// Cost is the cycle model (nil: no accounting).
	Cost *CostModel

	// KillOnViolation controls the verifier (§3.4). The paper disables it
	// for performance/correctness runs because baseline designs
	// false-positive (§5).
	KillOnViolation bool

	// ContinueChecks makes in-process checks (Clang-CFI, CCFI) record and
	// continue rather than trap — the §5 performance methodology.
	ContinueChecks bool

	// Policies builds the verifier policy set per process; nil installs the
	// registry default set (cfi + memsafety + counter + dfi). PolicyNames
	// takes precedence when both are set.
	Policies PolicyFactory

	// PolicyNames selects the policy set by registry name — e.g.
	// []string{"cfi", "memsafety", "hmac"}; Policies() lists the registry.
	// An unknown name fails the run before anything launches.
	PolicyNames []string

	// MaxInstructions bounds execution (0: vm default).
	MaxInstructions uint64

	// Seed randomizes information-hiding layout.
	Seed uint64

	// Metrics, when non-nil, wires the telemetry layer through the whole
	// stack: kernel gate, verifier and — in concurrent mode — the channel.
	Metrics *Metrics
}

// Outcome is the result of a monitored execution.
type Outcome = supervisor.Outcome

// Run executes an instrumented program under the HerQules framework:
// kernel module, verifier with the registry default policy set (cfi +
// memsafety + counter + dfi; override with RunOptions.PolicyNames), and —
// when RunOptions.Channel is set — a real concurrent AppendWrite transport.
//
// Run is the documented compatibility wrapper over the resident runtime: it
// stands up a throwaway single-tenant System, launches exactly one process,
// waits, and shuts the System down. New code hosting more than one program
// (or keeping the verifier warm between runs) should use NewSystem +
// System.Launch + Proc.Wait instead, where each RunOptions field is a
// SystemOption (policies, kills, metrics) or a RunOption (the rest).
func Run(ins *Instrumented, opts RunOptions) (*Outcome, error) {
	factory := opts.Policies
	if len(opts.PolicyNames) > 0 {
		f, err := policy.SetFactory(opts.PolicyNames...)
		if err != nil {
			return nil, err
		}
		factory = f
	}
	return supervisor.Run(supervisor.Config{
		Policies:        factory,
		KillOnViolation: opts.KillOnViolation,
		Metrics:         opts.Metrics,
	}, ins, supervisor.LaunchOptions{
		Entry:           opts.Entry,
		Args:            opts.Args,
		Channel:         opts.Channel,
		Inline:          opts.Channel == nil,
		Cost:            opts.Cost,
		ContinueChecks:  opts.ContinueChecks,
		MaxInstructions: opts.MaxInstructions,
		Seed:            opts.Seed,
	})
}

// Policy is a verifier-side execution policy.
type Policy = policy.Policy

// Violation is a failed policy check. Violation.Policy carries the registry
// name of the policy that raised it.
type Violation = policy.Violation

// CounterPolicy is the concrete event-counter policy; assert a Policy
// obtained from the registry (or Verifier.Policy lookups) to this type to
// read counts: p.(*herqules.CounterPolicy).Count(class).
type CounterPolicy = policy.Counter

// Policies lists the registered policy names, sorted — the valid inputs to
// WithPolicies, PolicySet and RunOptions.PolicyNames.
func Policies() []string { return policy.Names() }

// PolicySet resolves registry names into a PolicyFactory, validating every
// name up front. This is the error-returning counterpart of WithPolicies for
// callers that take policy names from configuration or flags.
func PolicySet(names ...string) (PolicyFactory, error) {
	f, err := policy.SetFactory(names...)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// PolicyFactory builds a policy set per monitored process. Construct one
// from registry names with PolicySet, or write your own for unregistered
// policy implementations.
type PolicyFactory = verifier.PolicyFactory

// Channel is a bidirectionally wired AppendWrite/IPC transport.
type Channel = ipc.Channel

// Message is the fixed-size AppendWrite message (§3.1).
type Message = ipc.Message

// ChannelKind selects an IPC primitive.
type ChannelKind = ipc.Kind

// The IPC primitives of Table 2.
const (
	SharedRing   = ipc.KindSharedRing
	MessageQueue = ipc.KindMessageQueue
	Pipe         = ipc.KindPipe
	Socket       = ipc.KindSocket
	LWC          = ipc.KindLWC
	FPGA         = ipc.KindFPGA
	UArchModel   = ipc.KindUArchModel
	UArchSim     = ipc.KindUArchSim
)

// NewChannel constructs an IPC channel of the given kind with a default
// capacity, propagating any constructor failure (an unknown kind reports
// its numeric value; backend validation errors — the FPGA's buffer check,
// the µarch simulator's appendable-region mapping — surface instead of
// being swallowed). The AppendWrite-µarch kind allocates its appendable
// memory region in a private address space.
func NewChannel(kind ChannelKind) (*Channel, error) {
	return supervisor.NewChannel(kind)
}

// PIDRegister is implemented by channel senders whose transport carries a
// kernel-managed process-identity register (§3.1.1); the framework programs
// it when binding a channel to a freshly registered process.
type PIDRegister = ipc.PIDRegister

// CostModel is the deterministic cycle model used by performance
// experiments.
type CostModel = sim.CostModel

// DefaultCostModel returns the baseline cycle model; attach a message cost
// with WithMessaging.
func DefaultCostModel() *CostModel { return sim.Default() }

// MessageCost converts a send latency in nanoseconds to model cycles.
func MessageCost(nanos float64) uint64 { return sim.MessageCost(nanos) }

// Result is the raw VM execution result embedded in Outcome.
type Result = vm.Result

// vmStaticFuncAddr backs StaticFuncAddr in ir.go.
var vmStaticFuncAddr = vm.StaticFuncAddr

// System call numbers available to generated programs.
const (
	// SysWrite appends a value to the program output.
	SysWrite = vm.SysWrite
	// SysNop is a read-only (stat-like) kernel service.
	SysNop = vm.SysNop
	// SysSend is an effectful (write/send-like) kernel service whose side
	// effects bounded asynchronous validation gates.
	SysSend = vm.SysSend
	// SysExit terminates the program.
	SysExit = vm.SysExit
)
