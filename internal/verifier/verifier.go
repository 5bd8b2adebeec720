// Package verifier implements the HerQules verifier (§3.4): a process (here
// a component living on the trusted side of the goroutine/ownership boundary)
// that maintains a policy context for each monitored application, receives
// AppendWrite messages, evaluates them against the attached policies, and
// tells the kernel when system calls may resume — or that a program must die.
//
// The verifier must keep up with message rates in the hundreds of millions
// per second so syscall-sync waits stay bounded (§3.4, §5.3). Two mechanisms
// provide the headroom:
//
//   - One context per process: each monitored process's policy context
//     carries its own lock, and each process sends over a channel of its
//     own, drained by a goroutine of its own. Messages from different
//     processes validate concurrently; one process's messages are evaluated
//     in order under its one lock, preserving the §3.1.1 counter semantics.
//     The context is also the unit of failure: a bug in the delivery path
//     poisons the one process it was delivering for, never its neighbours.
//   - Batch draining: Pump pulls whole bursts from the channel via
//     ipc.Receiver.RecvBatch and evaluates each process's run under one lock
//     round, on the goroutine that read it, amortizing atomics, syscalls and
//     map lookups across the burst instead of paying them per message.
package verifier

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"herqules/internal/dsched"
	"herqules/internal/ipc"
	"herqules/internal/policy"
	"herqules/internal/telemetry"
)

// Gate is the verifier's view of the kernel (the privileged channel of
// Figure 1, edges 4a/4b). *kernel.Kernel satisfies it.
type Gate interface {
	// NotifySyncReady tells the kernel the verifier has processed all
	// messages for pid up to a System-Call message without violations.
	NotifySyncReady(pid int32)
	// Kill terminates pid for the given reason.
	Kill(pid int32, reason string)
}

// PolicyFactory builds a fresh policy set for a newly registered process.
type PolicyFactory func() []policy.Policy

// procCtx is the verifier-side context for one monitored process, and the
// unit of locking, poisoning and fate. mu guards evaluation — the policies'
// state, lastSeq, the flight ring and the violation log — and is held for
// the whole of a delivered run, so a policy that blocks holds it. Everything
// an observer reads is published lock-free instead: the counts, report,
// poison and exited are atomics, written under mu and read without it, and
// pid and the split policy tables are fixed at birth. No goroutine ever
// holds two contexts' locks at once.
type procCtx struct {
	mu sync.Mutex
	// one is Deliver's run of one, filled under mu: the run goes to policy
	// interfaces, so an array local to Deliver would be heap-allocated per call.
	one [1]ipc.Message
	pid int32
	// poison is the reason a delivery-path panic gave when it poisoned the
	// context, nil while healthy. Read by WedgedFor under the kernel's lock.
	poison atomic.Pointer[string]
	// exited is set by ProcessExited, under mu, before the context leaves the
	// verifier's map: a drain still holding a pointer to it drops its run.
	exited atomic.Bool
	// policies is the full attached set in chain order, the view Entries,
	// Policy and fork cloning iterate. The delivery path reads the same
	// instances split by role, once at birth: sealers authenticate and strip
	// each window first (policy.Sealer), then the sequence check runs, then
	// the message goes to byOp[m.Op] — the non-sealer policies, in chain
	// order, whose Ops list that op or are nil. The last slot, which no op
	// indexes, holds the nil-declaring ones alone and serves every op beyond
	// the table. route[op] is 1 + the chain index of byOp[op]'s one policy,
	// 0 when no policy consumes the op and routeSeveral when several do:
	// consecutive messages with the same route other than routeSeveral are
	// one run, for that policy's HandleRun or for no call at all. One byte
	// per op keeps the context small. prefetchers are the members (of
	// either role) that want a look-ahead pass, see lookAhead.
	policies    []policy.Policy
	sealers     []policy.Sealer
	byOp        [ipc.NumOps + 1][]policy.Policy
	route       [ipc.NumOps + 1]uint8
	prefetchers []policy.Prefetcher
	violations  []*policy.Violation
	lastSeq     uint64
	// messages counts evaluated messages, published once per delivered run;
	// dropped counts those dropped after the context died; nviolations is
	// len(violations).
	messages, dropped, nviolations atomic.Uint64
	// flight is the per-process black-box ring, sized by EnableFlightRecorder.
	// Accessed only under mu — see the concurrency note in
	// telemetry/flight.go.
	flight *telemetry.FlightRecorder
	// report is the frozen postmortem, stored exactly once at the kill
	// decision (freezeLocked) and immutable afterwards. A context is dead
	// exactly when it has one: its process has been (or is being) killed, a
	// poisoned one included, and later messages are dropped instead of
	// evaluated, which both bounds the context's memory (the violations slice
	// stops growing) and prevents one counter gap from spawning a kill action
	// per remaining in-flight message.
	report atomic.Pointer[ForensicReport]
}

const routeSeveral = math.MaxUint8 // procCtx.route of an op several policies consume

// DefaultBatchSize is the per-RecvBatch burst size used by Pump, and so the
// most messages of one source the verifier ever holds.
const DefaultBatchSize = 256

// lookAhead bounds the window deliverSegment works in (procCtx.openWindow): a
// run of one process's messages that its policy.Prefetchers touch and its
// policy.Sealers authenticate before the first of them is evaluated. Touching
// ahead overlaps the window's cache misses: 263 to 197 ns per message over the
// 1 M-entry sealed chain; 32, 64 and 128 read the same, 16 and 256 worse.
const lookAhead = 64

// Verifier is the policy-enforcement process.
type Verifier struct {
	// mu guards procs, the PID → context map. Only lifecycle events (start,
	// fork, exit) write it; a drain reads it once per PID change, and no one
	// holds mu across a context lock, a gate call or a policy call.
	mu      sync.Mutex
	procs   map[int32]*procCtx
	factory PolicyFactory
	gate    Gate

	// KillOnViolation controls whether a violation terminates the
	// monitored program (the default) or execution continues with the
	// violation recorded — the paper does the latter when measuring
	// performance of designs with false positives (§5).
	KillOnViolation bool

	// CheckSeq enables per-process message-counter verification: a gap in
	// sequence numbers means messages were dropped or overwritten, which
	// is itself a fatal integrity violation (§3.1.1).
	CheckSeq bool

	// keyring, when set, is bound to every KeyBinder policy (the hmac
	// sealer) as process contexts are created.
	keyring *policy.Keyring

	// flightSlots sizes the flight ring of every context created afterwards
	// (EnableFlightRecorder).
	flightSlots int

	// vbp counts recorded violations by attributed policy name, feeding the
	// herqules_violations_total{policy=...} exposition. Guarded by vbpMu, a
	// leaf lock taken only on the (cold) violation paths — never contended by
	// clean traffic.
	vbpMu sync.Mutex
	vbp   map[string]uint64

	tm verifierMetrics
}

// EnableFlightRecorder sizes the flight ring of every process context created
// after the call (see telemetry.NewFlightRecorder for rounding); slots <= 0
// selects telemetry.DefaultFlightSlots, the size a new Verifier starts with.
// Like SetKeyring it must run before registrations; already-live contexts are
// not resized.
func (v *Verifier) EnableFlightRecorder(slots int) {
	if slots <= 0 {
		slots = telemetry.DefaultFlightSlots
	}
	v.flightSlots = slots
}

// noteViolation charges one recorded violation to the attributed policy name.
func (v *Verifier) noteViolation(name string) {
	v.vbpMu.Lock()
	if v.vbp == nil {
		v.vbp = make(map[string]uint64)
	}
	v.vbp[name]++
	v.vbpMu.Unlock()
}

// ViolationsByPolicy returns a copy of the violation counts keyed by the
// attributed policy name (Violation.Policy; "seq" for counter violations,
// "sealer" for an unnamed sealer reject).
func (v *Verifier) ViolationsByPolicy() map[string]uint64 {
	v.vbpMu.Lock()
	defer v.vbpMu.Unlock()
	if len(v.vbp) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(v.vbp))
	for k, n := range v.vbp {
		out[k] = n
	}
	return out
}

// SetKeyring attaches the message-authentication keyring consulted by
// KeyBinder policies (the hmac sealer). Must be called before any process
// registers.
func (v *Verifier) SetKeyring(kr *policy.Keyring) { v.keyring = kr }

// verifierMetrics caches the verifier's telemetry instruments; the
// per-message counters are striped at the registry's default width, and a
// context adds to the lane its PID selects, so deliveries for consecutive
// PIDs never contend on a cache line.
type verifierMetrics struct {
	messages  *telemetry.Counter // delivered messages
	dropped   *telemetry.Counter // messages dropped on dead contexts
	kills     *telemetry.Counter
	syncs     *telemetry.Counter
	poisons   *telemetry.Counter   // contexts poisoned by delivery-path panics
	recvErrs  *telemetry.Counter   // terminal receive errors that stopped a drain
	batchSize *telemetry.Histogram // delivered run lengths
	pumpStall *telemetry.Histogram // ns the drain loop spent in RecvBatch
}

// MessagesVerified is the registry name of the verifier's delivered-message
// counter, served on /metrics as herqules_messages_verified_total.
const MessagesVerified = "messages_verified"

// New creates a verifier counting into a metrics registry of its own. gate
// may be nil for standalone policy evaluation.
func New(factory PolicyFactory, gate Gate) *Verifier {
	return NewWithMetrics(factory, gate, telemetry.New(0))
}

// NewWithMetrics is New counting into m, the registry a System shares among
// its components.
func NewWithMetrics(factory PolicyFactory, gate Gate, m *telemetry.Metrics) *Verifier {
	return &Verifier{
		procs:           make(map[int32]*procCtx),
		factory:         factory,
		gate:            gate,
		KillOnViolation: true,
		flightSlots:     telemetry.DefaultFlightSlots,
		tm: verifierMetrics{
			messages:  m.Counter(MessagesVerified),
			dropped:   m.Counter("verifier.dropped_dead"),
			kills:     m.Counter("verifier.kills"),
			syncs:     m.Counter("verifier.syncs"),
			poisons:   m.Counter("verifier.poisoned"),
			recvErrs:  m.Counter("verifier.recv_terminal_errors"),
			batchSize: m.Histogram("verifier.batch_size"),
			pumpStall: m.Histogram("verifier.pump_stall_ns"),
		},
	}
}

// NewSharded is New with an ignored third argument, kept only for the
// frozen bench/; delete when ROADMAP item 3 thaws it.
func NewSharded(f PolicyFactory, g Gate, _ int) *Verifier { return New(f, g) }

// lookup returns pid's live context, nil when it has none.
func (v *Verifier) lookup(pid int32) *procCtx {
	v.mu.Lock()
	pc := v.procs[pid]
	v.mu.Unlock()
	return pc
}

// newProcCtx builds a context around an already-prepared policy set,
// splitting it by role and by op once at birth so the delivery path neither
// type-asserts nor offers a message to a policy that ignores its op.
func newProcCtx(pid int32, policies []policy.Policy) *procCtx {
	pc := &procCtx{pid: pid, policies: policies}
	for i, p := range policies {
		if pf, ok := p.(policy.Prefetcher); ok {
			pc.prefetchers = append(pc.prefetchers, pf)
		}
		if sl, ok := p.(policy.Sealer); ok {
			pc.sealers = append(pc.sealers, sl)
			continue
		}
		consume := func(op int) {
			pc.byOp[op] = append(pc.byOp[op], p)
			pc.route[op] = routeSeveral
			if len(pc.byOp[op]) == 1 && 1+i < routeSeveral {
				pc.route[op] = uint8(1 + i)
			}
		}
		ops := p.Ops()
		if ops == nil {
			for op := range pc.byOp {
				consume(op)
			}
			continue
		}
		var listed [ipc.NumOps]bool
		for _, op := range ops {
			if op < ipc.NumOps && !listed[op] {
				listed[op] = true
				consume(int(op))
			}
		}
	}
	return pc
}

// openWindow starts the window at ms[i]: the run's next lookAhead messages at
// most (a run is one process's). The prefetchers touch it, then each sealer
// authenticates and strips it in place, in chain order, a later sealer seeing
// only what the earlier ones passed. It returns the end of the authenticated
// part and, when that is short of the window, the violation of the message at
// end, which deliverSegment raises when its cursor gets there. A process that
// dies inside the window leaves the rest of it touched and stripped; those
// messages are dropped with the dead context like any others. *cur names the
// policy running, for deliverSegment's panic attribution. It is a method for
// the sake of deliverSegment's code generation: written out in that loop, the
// touch pass alone cost the cache-resident chain 8 %.
func (pc *procCtx) openWindow(ms []ipc.Message, i int, cur *policy.Policy) (end int, reject *policy.Violation) {
	w := ms[i:min(i+lookAhead, len(ms))]
	for _, pf := range pc.prefetchers {
		*cur = pf
		pf.Prefetch(w)
	}
	for _, sl := range pc.sealers {
		*cur = sl
		if n, v := sl.UnsealRun(w); v != nil {
			if n >= len(w) { // would land on a message outside the window
				panic("rejected a message outside its window")
			}
			w, reject = w[:n], v
		}
	}
	*cur = nil
	return i + len(w), reject
}

// bindKeyring hands the system keyring to every KeyBinder policy in the set.
func (v *Verifier) bindKeyring(policies []policy.Policy) {
	if v.keyring == nil {
		return
	}
	for _, p := range policies {
		if kb, ok := p.(policy.KeyBinder); ok {
			kb.BindKeyring(v.keyring)
		}
	}
}

// register publishes a context for pid around a prepared policy set, its
// black box opened with the lifecycle event code. The context is complete —
// flight ring stamped — before the map makes it visible, so no lock of its
// own is taken here.
func (v *Verifier) register(pid int32, policies []policy.Policy, code telemetry.FlightCode, value uint64) {
	pc := newProcCtx(pid, policies)
	pc.flight = telemetry.NewFlightRecorder(v.flightSlots)
	pc.flight.StampEvent(pid, code, value)
	v.mu.Lock()
	v.procs[pid] = pc
	v.mu.Unlock()
}

// ProcessStarted implements kernel.Listener: allocate a policy context. The
// policy set is constructed, bound to the keyring, and given its
// ProcessStarted hook before any lock is taken — policy construction may be
// arbitrarily expensive and the hooks may take the keyring lock.
//
// lastSeq is 0 from birth: the sender-side counter starts at registration
// (§3.1.1, every IPC backend stamps the first Send with Seq 1), so the
// expected next Seq is known before any message arrives. Leaving the baseline
// to the first *observed* message would let a reordered or dropped first
// message establish a bogus baseline and pass CheckSeq — a blind spot the
// model checker (internal/verify) flushes out as a gate-invariant violation.
func (v *Verifier) ProcessStarted(pid int32) {
	policies := v.factory()
	v.bindKeyring(policies)
	for _, p := range policies {
		p.ProcessStarted(pid)
	}
	v.register(pid, policies, telemetry.FlightRegistered, 0)
}

// ProcessForked implements kernel.Listener: copy the parent's context. The
// parent's lock is released before the child is built, so no two context
// locks are ever held at once; the clones' ProcessForked hooks run before the
// child becomes visible, so before any child message can be delivered.
func (v *Verifier) ProcessForked(parent, child int32) {
	var policies []policy.Policy
	v.withProc(parent, func(pc *procCtx) {
		policies = make([]policy.Policy, 0, len(pc.policies))
		for _, p := range pc.policies {
			policies = append(policies, p.Clone())
		}
	})
	if policies == nil {
		// Unknown parent: treat the child as a fresh registration.
		policies = v.factory()
		v.bindKeyring(policies)
		for _, p := range policies {
			p.ProcessStarted(child)
		}
	} else {
		v.bindKeyring(policies)
		for _, p := range policies {
			p.ProcessForked(parent, child)
		}
	}
	// The child gets its own channel, whose counter restarts at 1 — same
	// known-baseline rule as ProcessStarted.
	v.register(child, policies, telemetry.FlightForked, uint64(uint32(parent)))
}

// ProcessExited implements kernel.Listener: destroy the context. It is marked
// exited under its own lock first, so a drain that still holds a pointer to
// it drops what it delivers from then on, then it leaves the map.
func (v *Verifier) ProcessExited(pid int32) {
	pc := v.lookup(pid)
	if pc == nil {
		return
	}
	pc.mu.Lock()
	pc.exited.Store(true)
	pc.mu.Unlock()
	v.mu.Lock()
	if v.procs[pid] == pc {
		delete(v.procs, pid)
	}
	v.mu.Unlock()
}

// ProcessKilled implements kernel.Listener: the kernel reports that pid was
// killed (a verifier-requested kill echoing back, or an epoch-expiry or lease
// kill the verifier never saw). Freezing the report marks the context dead,
// so messages still in flight are dropped rather than evaluated, keeping the
// context's memory bounded between the kill and the eventual ProcessExited.
// This is the freeze point for kernel-originated kills: the flight ring stops
// here and the postmortem is built with the kernel's reason. For
// verifier-originated kills the echo is a no-op — freezeLocked already ran at
// the violation and is idempotent.
func (v *Verifier) ProcessKilled(pid int32, reason string) {
	v.withProc(pid, func(pc *procCtx) { v.freezeLocked(pc, nil, reason, 0) })
}

// gateAction is a deferred kernel interaction for the run's process: policy
// evaluation happens under the context's lock, kernel calls after it is
// released (the kernel may block or call back into process teardown).
type gateAction struct {
	kill   bool
	reason string
}

// Deliver processes one message synchronously, on the caller's goroutine: the
// emit path of an inline launch, which evaluates each message at send time.
// It is contained like every delivery (safeDeliver).
func (v *Verifier) Deliver(m ipc.Message) {
	if pc := v.lookup(m.PID); pc != nil {
		v.safeDeliver(pc, nil, &m)
	}
}

// DeliverBatch processes a burst of messages, taking each process's lock once
// per run of its messages instead of once per message. Message order within
// the batch is preserved, which keeps per-process ordering intact for any
// partition of one process's stream into batches.
func (v *Verifier) DeliverBatch(ms []ipc.Message) {
	var pc *procCtx
	v.deliverRuns(ms, &pc)
}

// deliverRuns is the run loop DeliverBatch and Pump share: cut ms into runs of
// one process's messages (nextRun) and deliver each in order through
// safeDeliver, under that process's lock, never two held. *pc is the context
// the caller delivered to last, kept across calls by Pump: the PID → context
// map is read only when the run's PID differs from it or it has exited, so a
// single-process source never reads the map in steady state. A PID with no
// context (never registered, or exited) is dropped: authenticity is the
// kernel's job (PID register, §3.1.1), and an unknown PID means the process
// never enabled HerQules. Ahead of each run is the model checker's
// interleaving point — the run is read but not yet delivered, the window a
// lifecycle event (exit, kill, poison) can slip into; the goroutine holds no
// lock there. Both it and the containment are per run, never per message.
func (v *Verifier) deliverRuns(ms []ipc.Message, pc **procCtx) {
	for start := 0; start < len(ms); {
		pid, end := ms[start].PID, nextRun(ms, start)
		dsched.Yield(dsched.PointDeliver, pid)
		if c := *pc; c == nil || c.pid != pid || c.exited.Load() {
			*pc = v.lookup(pid)
		}
		if c := *pc; c != nil {
			v.safeDeliver(c, ms[start:end], nil)
		}
		start = end
	}
}

// nextRun returns the end of the longest run ms[start:end] of ms[start]'s
// process. Production sources are per-process channels, so their bursts are
// single runs; only a forked child riding its parent's channel, or a
// synthetic multi-PID stream, splits.
func nextRun(ms []ipc.Message, start int) (end int) {
	pid := ms[start].PID
	for end = start + 1; end < len(ms) && ms[end].PID == pid; end++ {
	}
	return end
}

// seqViolationReason classifies a failed per-process counter check (§3.1.1)
// by the relation of the received counter to the last validated one. The
// three classes are distinct attack/fault signatures — a duplicated message,
// a replayed or reordered one, and dropped/overwritten messages — and the
// chaos injector's duplicate/reorder/drop faults rely on being told apart.
func seqViolationReason(got, last uint64) string {
	switch {
	case got == last:
		return fmt.Sprintf("message counter duplicate: %d delivered twice", got)
	case got < last:
		return fmt.Sprintf("message counter replay/reorder: got %d after %d", got, last)
	default:
		return fmt.Sprintf("message counter gap: got %d after %d (%d missing)", got, last, got-last-1)
	}
}

// deliverState is the per-run evaluation state shared between deliverLocked
// and its deliverSegment resumption loop. It lives on deliverLocked's stack
// (passed by pointer, never retained), so the engine dispatch adds no
// per-message allocation.
type deliverState struct {
	delivered, dropped, killCount, syncCount uint64
	checkSeq, killOnViolation                bool
	// i is the cursor into the run; a segment that dies in policy code
	// leaves it at the first message of the policy run or window being
	// evaluated, which the recover path charges and skips.
	i int
}

// deliverLocked evaluates a run of pc's messages: it is entered with pc.mu
// held and returns with it released, the gate calls made. An exited context
// drops the run, like an unregistered PID. The run's evaluated messages are
// published to pc.messages once, before the lock drops — on the panic path
// too, so a poisoned context's count holds what it evaluated.
func (v *Verifier) deliverLocked(pc *procCtx, ms []ipc.Message) {
	// Observation point for the model checker: the dead and exited checks —
	// a poisoned context is dead — are the first act of a delivery round.
	// Once per run, never per message.
	dsched.Note(dsched.PointPoisonCheck, pc.pid)
	if pc.exited.Load() {
		pc.mu.Unlock()
		return
	}
	var actsBuf [4]gateAction
	acts := actsBuf[:0]
	st := deliverState{
		checkSeq:        v.CheckSeq,
		killOnViolation: v.KillOnViolation,
	}

	locked := true
	// A panic escaping deliverSegment (a delivery-path bug, not a policy
	// panic — those are contained per policy inside the segment) must not
	// leave the context's mutex held: the recover path (safeDeliver →
	// poison) re-takes it to freeze the context.
	defer func() {
		if locked {
			pc.messages.Add(st.delivered)
			pc.mu.Unlock()
		}
	}()
	// In the panic-free common case deliverSegment consumes the whole run in
	// one call; after a contained policy panic it resumes past the offending
	// message, whose process is dead by then, so the rest is dropped.
	for st.i < len(ms) {
		acts = v.deliverSegment(pc, ms, &st, acts)
	}
	locked = false
	pc.messages.Add(st.delivered)
	pc.mu.Unlock()

	tm, lane := &v.tm, int(pc.pid)
	tm.messages.AddAt(lane, st.delivered)
	tm.batchSize.ObserveAt(lane, uint64(len(ms)))
	if st.dropped > 0 {
		tm.dropped.AddAt(lane, st.dropped)
	}
	if st.killCount > 0 {
		tm.kills.AddAt(lane, st.killCount)
	}
	if st.syncCount > 0 {
		tm.syncs.AddAt(lane, st.syncCount)
	}
	if v.gate == nil {
		return
	}
	for _, a := range acts {
		if a.kill {
			v.gate.Kill(pc.pid, a.reason)
		} else {
			v.gate.NotifySyncReady(pc.pid)
		}
	}
}

// deliverSegment runs the engine over ms[st.i:], a run of pc's messages,
// under pc.mu held by deliverLocked. It works a window at a time
// (procCtx.openWindow): pc's Prefetchers touch the table lines the next
// lookAhead messages will need and its Sealers authenticate and strip those
// messages in place. Inside the window it works a policy run at a time: a
// message that passes the sequence check and those behind it with its route
// (procCtx.route) go to the op's one policy in one HandleRun call; an op
// several policies consume is a run of one for each (procCtx.byOp, chain
// order). A sealer's reject is raised when the cursor reaches the rejected
// message. The first violating policy is the one the kill is attributed to
// via Violation.Policy.
//
// A panic inside a policy's Prefetch, UnsealRun or HandleRun is contained to
// the process: the recover below converts it into an attributed violation and
// kill, marks the context dead, and returns with the cursor past the
// offending message — the window's or the policy run's first — so
// deliverLocked resumes, dropping the rest. Panics outside policy code
// (cur == nil) are delivery-path bugs and re-panic into safeDeliver, which
// poisons the context.
//
// cur — the policy whose Prefetch/UnsealRun/HandleRun is executing right now,
// nil outside policy code — is the panic-attribution anchor. It is a local
// captured by the deferred recover (not a deliverState field) so that the
// interface method calls on it in the cold recover path don't make escape
// analysis treat the whole deliverState as leaking, which would heap-allocate
// the gate-action buffer once per batch.
// The gate-action list is threaded through as a parameter and (named)
// result rather than living in deliverState: appending through a pointed-to
// struct field would make escape analysis move the caller's stack buffer to
// the heap, reintroducing a per-batch allocation on the zero-alloc drain.
func (v *Verifier) deliverSegment(pc *procCtx, ms []ipc.Message, st *deliverState, acts []gateAction) (out []gateAction) {
	out = acts
	var cur policy.Policy
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if cur == nil {
			panic(r)
		}
		name := cur.Name()
		viol := &policy.Violation{PID: pc.pid, Op: ms[st.i].Op, Policy: name,
			Reason: fmt.Sprintf("policy %q panicked: %v", name, r)}
		out = append(out, v.condemn(st, pc, &ms[st.i], viol, telemetry.FlightPolicyPanic))
		st.i++ // resume after the message charged
	}()
	// The open window ends at winEnd; reject, when set, is the violation a
	// sealer raised for ms[winEnd]. A segment starts with no window open.
	winEnd, checkSeq := st.i, st.checkSeq
	var reject *policy.Violation
	for st.i < len(ms) {
		if pc.report.Load() != nil {
			// The process is already being killed: drop instead of
			// evaluating, so one fatal violation yields exactly one kill
			// action and the context stops accumulating state.
			n := uint64(len(ms) - st.i)
			st.dropped += n
			pc.dropped.Add(n)
			st.i = len(ms)
			break
		}
		m := &ms[st.i]
		// A live message at or past winEnd opens the next window or is the
		// one a sealer rejected.
		if st.i >= winEnd {
			if reject == nil || st.i > winEnd {
				winEnd, reject = pc.openWindow(ms, st.i, &cur)
			}
			if st.i == winEnd {
				if reject.Policy == "" {
					reject.Policy = "sealer"
				}
				// Authentication failures are always fatal, like §3.1.1
				// counter violations: the message cannot be trusted to belong
				// to the process, so continuing to evaluate would validate an
				// attacker-controlled stream.
				out = append(out, v.condemn(st, pc, m, reject, telemetry.FlightSealerReject))
				st.i++
				continue
			}
		}
		if checkSeq && m.Seq != pc.lastSeq+1 {
			viol := &policy.Violation{PID: m.PID, Op: m.Op, Policy: "seq",
				Reason: seqViolationReason(m.Seq, pc.lastSeq)}
			// Integrity violations are always fatal (§3.1.1).
			out = append(out, v.condemn(st, pc, m, viol, telemetry.FlightSeqGap))
			st.i++
			continue
		}

		// The policy run: m and the messages behind it in the window with its
		// route and the next Seq, up to a System-Call message, whose gate
		// waits for nothing behind it.
		op := min(m.Op, ipc.NumOps)
		end := st.i + 1
		if r := pc.route[op]; r != routeSeveral {
			for end < winEnd && ms[end-1].Op != ipc.OpSyscall && pc.route[min(ms[end].Op, ipc.NumOps)] == r &&
				(!checkSeq || ms[end].Seq == ms[end-1].Seq+1) {
				end++
			}
		}
		run := ms[st.i:end]
		n := len(run) // the clean prefix; the violator joins it below
		var violated *policy.Violation
		for _, p := range pc.byOp[op] {
			cur = p
			k, viol := p.HandleRun(run)
			if viol != nil {
				if uint(k) >= uint(len(run)) { // would land on a message outside the run
					panic("violation outside its run")
				}
				if viol.Policy == "" {
					viol.Policy = p.Name()
				}
				if violated == nil {
					violated, n = viol, k
				}
				v.recordLocked(pc, viol)
			}
		}
		cur = nil
		// Flight stamps: one ring store per evaluated message with its
		// chain's outcome, the clean prefix first.
		fr := pc.flight
		for i := range run[:n] {
			c := &run[i]
			fr.StampMessage(c.PID, uint16(c.Op), c.Seq, c.Arg1^c.Arg2^c.Arg3, telemetry.FlightOK)
		}
		if violated != nil {
			c := &run[n]
			fr.StampMessage(c.PID, uint16(c.Op), c.Seq, c.Arg1^c.Arg2^c.Arg3, telemetry.FlightViolated)
		}
		if violated != nil {
			n++ // the violator is evaluated too
		}
		st.delivered += uint64(n)
		st.i += n
		last := &run[n-1]
		pc.lastSeq = last.Seq
		if violated != nil && st.killOnViolation {
			// Frozen after the counts, so the report's Messages holds the run.
			v.freezeLocked(pc, violated, violated.Reason, st.delivered)
			out = append(out, gateAction{kill: true, reason: violated.Reason})
			st.killCount++
			continue
		}
		if last.Op == ipc.OpSyscall {
			// A System-Call message indicates all outstanding messages
			// have been processed; resume the syscall unless a prior
			// violation is pending and fatal (§2.2).
			if len(pc.violations) == 0 || !st.killOnViolation {
				out = append(out, gateAction{})
				st.syncCount++
			}
		}
	}
	return out
}

// condemn records viol, raised by message m, as the violation pc dies of
// whatever KillOnViolation says — a sealer reject, a counter violation, a
// policy panic — and returns the kill to issue once the context's lock drops:
// m is counted as evaluated, its black box gets m stamped with code, and the
// context is frozen dead.
func (v *Verifier) condemn(st *deliverState, pc *procCtx, m *ipc.Message, viol *policy.Violation, code telemetry.FlightCode) gateAction {
	st.delivered++
	v.recordLocked(pc, viol)
	pc.flight.StampMessage(m.PID, uint16(m.Op), m.Seq, m.Arg1^m.Arg2^m.Arg3, code)
	v.freezeLocked(pc, viol, viol.Reason, st.delivered)
	st.killCount++
	return gateAction{kill: true, reason: viol.Reason}
}

// recordLocked appends viol to pc's violation log and counts it, for pc and
// for its attributed policy. Caller holds pc.mu.
func (v *Verifier) recordLocked(pc *procCtx, viol *policy.Violation) {
	pc.violations = append(pc.violations, viol)
	pc.nviolations.Add(1)
	v.noteViolation(viol.Policy)
}

// safeDeliver is every delivery's entry point — Deliver's message (one, when
// non-nil, copied into pc.one under the lock) or a run ms of DeliverBatch and
// Pump — and the outer ring of panic containment. Policy panics never reach
// it — deliverSegment converts those into an attributed kill of the process —
// so a panic arriving here is a bug in the delivery path itself (or in a gate
// call made from it), and the context's state can no longer be trusted. The
// context is poisoned: its process is killed fail-closed, once, and its later
// messages are dropped with the dead context, instead of the panic tearing
// down the whole verifier process — or an inline program's goroutine, and the
// program with it — and silently un-gating every monitored program. No other
// process is touched. A drain that caught it keeps reading: its producer
// never wedges behind a dead consumer.
func (v *Verifier) safeDeliver(pc *procCtx, ms []ipc.Message, one *ipc.Message) {
	defer func() {
		if r := recover(); r != nil {
			v.poison(pc, fmt.Sprintf("verifier poisoned for pid %d: delivery panic: %v", pc.pid, r))
		}
	}()
	pc.mu.Lock()
	if one != nil {
		pc.one[0] = *one
		ms = pc.one[:]
	}
	v.deliverLocked(pc, ms)
}

// poison marks pc permanently failed: its black box is closed with the
// poison event and frozen, which marks it dead (its later messages are
// dropped), WedgedFor reports it wedged so a gate already stalled in
// SyscallEnter dies at its epoch deadline with an attributable reason, and
// its process is killed unless it was already dead. First caller wins; later
// calls are no-ops.
func (v *Verifier) poison(pc *procCtx, reason string) {
	if !pc.poison.CompareAndSwap(nil, &reason) {
		return
	}
	pc.mu.Lock()
	kill := pc.report.Load() == nil
	pc.flight.StampEvent(pc.pid, telemetry.FlightPoisoned, 0)
	v.freezeLocked(pc, nil, reason, 0)
	pc.mu.Unlock()
	v.tm.poisons.Inc()
	if kill && v.gate != nil {
		v.gate.Kill(pc.pid, reason)
	}
}

// PoisonProcess poisons pid's context exactly as a contained delivery-path
// panic would (see poison). Exported for the model checker
// (internal/verify), which explores poisoning as an explicit lifecycle
// transition rather than by throwing a real panic. A pid with no context is
// a no-op.
func (v *Verifier) PoisonProcess(pid int32, reason string) {
	if pc := v.lookup(pid); pc != nil {
		v.poison(pc, reason)
	}
}

// Poisoned reports how many process contexts contained delivery-path panics
// have poisoned since the verifier started. Non-zero means the verifier has
// hit a bug in its own delivery path. It reads the registry's
// verifier.poisoned counter, which a System diffs to its own lifetime for
// supervisor.Health and /healthz.
func (v *Verifier) Poisoned() int { return int(v.tm.poisons.Value()) }

// WedgedFor implements kernel.Listener's probe at an epoch deadline: it
// reports whether the verifier can still make validation progress for pid —
// not when pid's context is poisoned. It takes no lock that anyone holds
// across a gate or kernel call: the kernel calls it with its own lock held.
func (v *Verifier) WedgedFor(pid int32) (bool, string) {
	if pc := v.lookup(pid); pc != nil {
		if r := pc.poison.Load(); r != nil {
			return true, *r
		}
	}
	return false, ""
}

// killAttributed terminates the process a receive-side error is attributed
// to. Unattributed errors (a corrupted byte stream may carry a stale PID in
// a partially-read message) kill no one: terminating a process on evidence
// that cannot be tied to it would itself be a policy failure.
func (v *Verifier) killAttributed(err error) {
	if v.gate == nil {
		return
	}
	var pe *ipc.ProcessError
	if errors.As(err, &pe) && pe.PID != 0 {
		v.gate.Kill(pe.PID, "message integrity violated: "+pe.Err.Error())
	}
}

// withProc runs f on pid's context under its lock and reports whether pid has
// one. Only what needs the policies, the ring or the violation log takes it;
// a policy that blocks holds it.
func (v *Verifier) withProc(pid int32, f func(pc *procCtx)) bool {
	pc := v.lookup(pid)
	if pc == nil {
		return false
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	f(pc)
	return true
}

// Violations returns the violations recorded for pid.
func (v *Verifier) Violations(pid int32) (out []*policy.Violation) {
	v.withProc(pid, func(pc *procCtx) { out = append(out, pc.violations...) })
	return out
}

// Messages returns the number of messages processed for pid, without its
// context's lock.
func (v *Verifier) Messages(pid int32) uint64 {
	st, _ := v.ProcStats(pid)
	return st.Messages
}

// TotalMessages returns the number of messages processed for all processes:
// the registry's MessagesVerified counter, over every verifier counting into
// it.
func (v *Verifier) TotalMessages() uint64 { return v.tm.messages.Value() }

// ProcStats is the verifier-side per-process attribution row. The supervisor
// merges it with the kernel's per-process figures for /procs and
// System.Stats.
type ProcStats struct {
	PID        int32  `json:"pid"`
	Messages   uint64 `json:"messages"`   // validated deliveries
	Dropped    uint64 `json:"dropped"`    // dropped after the context died
	Violations uint64 `json:"violations"` // recorded policy violations
	Dead       bool   `json:"dead"`       // killed (report frozen); context awaiting teardown
}

// ProcStats returns the per-process verifier statistics for pid without its
// context's lock, so it answers while a policy holds it; ok is false when the
// process has no live context (never registered, or already exited). The
// fields are read one by one, not as a consistent cut.
func (v *Verifier) ProcStats(pid int32) (ProcStats, bool) {
	pc := v.lookup(pid)
	if pc == nil {
		return ProcStats{}, false
	}
	return ProcStats{
		PID:        pc.pid,
		Messages:   pc.messages.Load(),
		Dropped:    pc.dropped.Load(),
		Violations: pc.nviolations.Load(),
		Dead:       pc.report.Load() != nil,
	}, true
}

// Entries returns the current and maximum metadata entries across the
// policies of pid (the §5.4 memory-overhead metric). Max is only available
// for policies that track it.
func (v *Verifier) Entries(pid int32) (cur, max int) {
	v.withProc(pid, func(pc *procCtx) {
		for _, p := range pc.policies {
			cur += p.Entries()
			type maxer interface{ MaxEntries() int }
			if mp, ok := p.(maxer); ok {
				max += mp.MaxEntries()
			}
		}
	})
	return cur, max
}

// Policy returns the first attached policy of pid matching name — a registry
// name such as "cfi" or "counter" (policy.Names) — for examples and tests
// that read policy state (e.g. counter values).
func (v *Verifier) Policy(pid int32, name string) (found policy.Policy) {
	v.withProc(pid, func(pc *procCtx) {
		for _, p := range pc.policies {
			if p.Name() == name {
				found = p
				return
			}
		}
	})
	return found
}
