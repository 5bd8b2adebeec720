// Package policy implements the verifier-side execution policies of the
// paper: the control-flow-integrity pointer-integrity policy of the case
// study (§4.1), the memory-safety allocation policy sketched in §4.2, the
// data-flow-integrity policy of §4.3, the toy function-call counter from the
// §2 overview, and two extensions — temporal memory safety over allocation
// generations, and a CCFI-style MAC-authenticated channel mode. A policy
// consumes AppendWrite messages and reports violations; it holds all of its
// state outside the monitored process, which is the entire point of HerQules
// — a memory-safety bug in the program cannot reach this metadata.
//
// Policies are named and constructed through a registry (see registry.go), so
// a policy set is data — []string{"cfi", "memsafety"} — rather than code.
package policy

import (
	"fmt"

	"herqules/internal/ipc"
)

// Violation describes a failed policy check.
type Violation struct {
	PID   int32
	Op    ipc.Op
	Addr  uint64
	Value uint64
	// Policy is the registry name of the policy that raised the violation
	// ("seq" for the verifier's built-in sequence check), so kills are
	// attributable to the check that fired.
	Policy string
	Reason string
}

func (v *Violation) Error() string {
	name := v.Policy
	if name == "" {
		name = "policy"
	}
	return fmt.Sprintf("%s violation (pid %d, %s): %s [addr=%#x value=%#x]",
		name, v.PID, v.Op, v.Reason, v.Addr, v.Value)
}

// Policy is one execution policy attached to a monitored process context.
// Implementations that need no lifecycle state should embed Hooks to pick up
// no-op ProcessStarted/ProcessForked methods.
type Policy interface {
	// Name identifies the policy; it equals the name the policy is
	// registered under (registry.go), so diagnostics, Verifier.Policy
	// lookups and WithPolicies arguments all speak the same vocabulary.
	Name() string
	// Handle processes one message, returning a non-nil Violation when a
	// check fails. Messages whose Op the policy does not recognize must be
	// ignored (multiple policies can share one message stream).
	Handle(m ipc.Message) *Violation
	// HandleRun processes ms in order, as len(ms) calls of Handle would, and
	// stops at the first violation: it returns that message's index and the
	// violation, or len(ms) and nil when the run is clean. It must not retain
	// or modify ms. The verifier calls it, not Handle, once per run of one
	// process's messages whose op it alone consumes (else a run of one).
	HandleRun(ms []ipc.Message) (n int, v *Violation)
	// Ops lists the operation codes Handle acts on; the verifier routes a
	// message only to the policies that list its Op, so a policy pays for
	// its own checks and not for its neighbours' messages. nil means every
	// op (what Hooks supplies), including those at or beyond ipc.NumOps,
	// which cannot be listed; an empty non-nil list means none. The list is
	// read once, when the policy is attached to a process.
	Ops() []ipc.Op
	// Clone duplicates the policy state for a forked child (§3.4). The
	// clone's state must be independent: mutating the child must not be
	// observable through the parent.
	Clone() Policy
	// Entries reports the current number of metadata entries, used for
	// the paper's §5.4 memory-overhead metrics.
	Entries() int
	// ProcessStarted runs once when the policy instance is attached to a
	// freshly registered process, before any message is handled.
	ProcessStarted(pid int32)
	// ProcessForked runs on the cloned instance when it is attached to a
	// forked child, before any of the child's messages are handled.
	ProcessForked(parent, child int32)
}

// Hooks is the no-op implementation of the Policy lifecycle hooks, and the
// "every op" default of Ops; policies with no per-process lifecycle state
// embed it.
type Hooks struct{}

// Ops implements Policy: nil, so the policy is handed every message.
func (Hooks) Ops() []ipc.Op { return nil }

// ProcessStarted implements Policy as a no-op.
func (Hooks) ProcessStarted(pid int32) {}

// ProcessForked implements Policy as a no-op.
func (Hooks) ProcessForked(parent, child int32) {}

// Sealer is implemented by policies that transform messages before any
// policy (including themselves) handles them — the verifier-side half of an
// authenticated channel. The verifier hands sealers, in chain order, the next
// window of one process's run in one call, before the sequence check and
// before any Handle.
//
// UnsealRun verifies the transport envelope of each message of ms in order
// and strips it in place (Mac zeroed), stopping at the first that fails:
// ms[:n] are authenticated and stripped, ms[n:] untouched, and v is the
// violation of ms[n], nil when n == len(ms). Called again on a window that
// starts at that message it returns 0 and the same violation. A violation is
// always fatal for the process: a message that fails authentication says
// nothing trustworthy about which process it belongs to. The engine evaluates
// ms[:n] and raises v when it reaches ms[n]. A panic inside UnsealRun is
// charged to the window's first message, and whatever prefix was already
// unsealed is dropped with the dead context. (The verb used to be
// Unseal(m) (m, *Violation), one message by value.)
type Sealer interface {
	Policy
	UnsealRun(ms []ipc.Message) (n int, v *Violation)
}

// Prefetcher is implemented by policies whose Handle is a dependent load into
// a table that can outgrow the cache. The verifier's delivery holds a
// whole run of messages when it starts on the first; it hands the next few
// to Prefetch so their table lines are already on the way when Handle asks
// for them. Prefetch may read ms and the policy's own tables; it must not
// change state, report, or trust ms: it runs before UnsealRun, on
// unauthenticated arguments. A policy decides from its own table size
// whether the pass is worth running.
type Prefetcher interface {
	Policy
	Prefetch(ms []ipc.Message)
}

// KeyBinder is implemented by policies that need the system keyring (the
// hmac sealer). The verifier binds the keyring to each fresh instance before
// invoking its lifecycle hooks.
type KeyBinder interface {
	BindKeyring(*Keyring)
}
