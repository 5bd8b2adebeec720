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

// Hooks is the no-op implementation of the Policy lifecycle hooks; policies
// with no per-process lifecycle state embed it.
type Hooks struct{}

// ProcessStarted implements Policy as a no-op.
func (Hooks) ProcessStarted(pid int32) {}

// ProcessForked implements Policy as a no-op.
func (Hooks) ProcessForked(parent, child int32) {}

// Sealer is implemented by policies that transform each message before any
// policy (including themselves) handles it — the verifier-side half of an
// authenticated channel. Unseal verifies the transport envelope and returns
// the message with the envelope stripped; a non-nil Violation is always
// fatal for the process, because a message that fails authentication says
// nothing trustworthy about which process it belongs to. Sealers run in
// chain order before the verifier's sequence check and before every Handle.
//
// Unseal takes and returns the message by value so the verifier's hot path
// never hands a sealer a pointer into its batch buffers (which would defeat
// escape analysis and reintroduce per-batch allocation).
type Sealer interface {
	Policy
	// Unseal authenticates m and returns it with the envelope stripped
	// (Mac zeroed). The returned message replaces m in the stream only
	// when the Violation is nil.
	Unseal(m ipc.Message) (ipc.Message, *Violation)
}

// Prefetcher is implemented by policies whose Handle is a dependent load into
// a table that can outgrow the cache. The verifier's shard worker holds a
// whole run of messages when it starts on the first; it hands the next few
// to Prefetch so their table lines are already on the way when Handle asks
// for them. Prefetch may read ms and the policy's own tables; it must not
// change state, report, or trust ms: it runs before Unseal, on
// unauthenticated arguments, and ms may hold other processes' messages. A
// policy decides from its own table size whether the pass is worth running.
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
