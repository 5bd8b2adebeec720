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
//   - Sharding: per-process contexts live in N independent shards keyed by
//     PID hash, each with its own lock. Messages from different monitored
//     processes validate concurrently; messages from one process always land
//     in the same shard, preserving per-process ordering and the §3.1.1
//     counter semantics.
//   - Batch draining: Pump pulls whole bursts from the channel via
//     ipc.Receiver.RecvBatch and evaluates each shard's share under one lock
//     round, on the goroutine that read it, amortizing atomics, syscalls and
//     map lookups across the burst instead of paying them per message.
package verifier

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

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

// procCtx is the verifier-side context for one monitored process.
type procCtx struct {
	pid int32
	// policies is the full attached set in chain order, the view Entries,
	// Policy and fork cloning iterate. The delivery path reads the same
	// instances split by role, once at birth: sealers authenticate and strip
	// each window first (policy.Sealer), then the sequence check runs, then
	// the message goes to byOp[m.Op] — the non-sealer policies, in chain
	// order, whose Ops list that op or are nil. The last slot, which no op
	// indexes, holds the nil-declaring ones alone and serves every op beyond
	// the table. prefetchers are the members (of either role) that want a
	// look-ahead pass, see lookAhead.
	policies    []policy.Policy
	sealers     []policy.Sealer
	byOp        [ipc.NumOps + 1][]policy.Policy
	prefetchers []policy.Prefetcher
	violations  []*policy.Violation
	messages    uint64
	dropped     uint64 // messages dropped after the context went dead
	lastSeq     uint64
	seqValid    bool
	// flight is the per-process black-box ring (nil unless
	// EnableFlightRecorder ran before registration). Accessed only under the
	// owning shard's mutex — see the concurrency note in telemetry/flight.go.
	flight *telemetry.FlightRecorder
	// report is the frozen postmortem, built exactly once at the kill
	// decision (freezeLocked) and immutable afterwards.
	report *ForensicReport
	// dead marks a context whose process has been (or is being) killed:
	// subsequent messages are dropped instead of evaluated, which both
	// bounds the context's memory (the violations slice stops growing)
	// and prevents one counter gap from spawning a kill action per
	// remaining in-flight message.
	dead bool
}

// cacheLinePad pads hot per-shard structures that live in slices to
// cache-line multiples, so drains delivering into neighboring shards never
// invalidate each other's lines (false sharing). 64 bytes covers x86-64 and
// most arm64.
const cacheLinePad = 64

// shard owns the contexts of the processes hashed to it. Shards live in a
// contiguous slice, each mutex bounced by the drain goroutines of the
// processes resident there; padding keeps adjacent shards on distinct cache
// lines.
type shard struct {
	mu    sync.Mutex
	procs map[int32]*procCtx
	// one is Deliver's batch of one, filled under mu: the batch goes to policy
	// interfaces, so an array local to Deliver would be heap-allocated per call.
	one [1]ipc.Message
	_   [cacheLinePad - (unsafe.Sizeof(sync.Mutex{})+unsafe.Sizeof(map[int32]*procCtx(nil))+unsafe.Sizeof([1]ipc.Message{}))%cacheLinePad]byte
}

// Pump tuning: the burst size is fixed; the Verifier's MaxRecvRetries field
// overrides the retry bound.
const (
	// DefaultBatchSize is the per-RecvBatch burst size used by Pump, and so
	// the most messages of one source the verifier ever holds.
	DefaultBatchSize = 256
	// DefaultMaxRecvRetries bounds how many consecutive transient receive
	// errors a pump drain loop retries (with ipc.RetryBackoff) before
	// treating the source as terminally failed. The count resets on any
	// successful receive.
	DefaultMaxRecvRetries = 8
)

// lookAhead bounds the window deliverSegment works in (procCtx.openWindow): a
// run of one process's messages that its policy.Prefetchers touch and its
// policy.Sealers authenticate before the first of them is evaluated. Touching
// ahead overlaps the window's cache misses: 263 to 197 ns per message over the
// 1 M-entry sealed chain; 32, 64 and 128 read the same, 16 and 256 worse.
const lookAhead = 64

// shardHealth is the lock-free poisoned-shard flag consulted by the hot
// delivery path, the kernel watchdog (WedgedFor runs under the kernel lock,
// so it must not take shard locks), and Health. reason is set exactly once,
// before the flag flips, so a reader that observes poisoned==true always
// sees the reason.
type shardHealth struct {
	reason   atomic.Pointer[string]
	poisoned atomic.Bool
	// Padded like shard: health flags sit 1:1 with shards in a slice and are
	// read once per delivered batch by every drain; a poison write on one
	// shard must not evict its neighbors' lines.
	_ [cacheLinePad - (unsafe.Sizeof(atomic.Bool{})+unsafe.Sizeof(atomic.Pointer[string]{}))%cacheLinePad]byte
}

// Verifier is the policy-enforcement process.
type Verifier struct {
	shards  []shard
	health  []shardHealth // 1:1 with shards
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

	// MaxRecvRetries overrides DefaultMaxRecvRetries, the number of times a
	// pump drain loop retries a transient receive error (ipc.IsTransient)
	// with backoff before treating the source as terminally failed
	// (0 keeps the default).
	MaxRecvRetries int

	totalMessages atomic.Uint64

	// keyring, when set, is bound to every KeyBinder policy (the hmac
	// sealer) as process contexts are created.
	keyring *policy.Keyring

	// flightSlots, when non-zero, arms a per-process flight recorder of that
	// many slots on every context created afterwards (EnableFlightRecorder).
	flightSlots int

	// vbp counts recorded violations by attributed policy name, feeding the
	// herqules_violations_total{policy=...} exposition. Guarded by vbpMu, a
	// leaf lock taken only on the (cold) violation paths — never contended by
	// clean traffic.
	vbpMu sync.Mutex
	vbp   map[string]uint64

	tm *verifierMetrics
}

// EnableFlightRecorder arms a flight recorder of the given slot count (see
// telemetry.NewFlightRecorder for rounding) on every process context created
// after the call. Like EnableTelemetry and SetKeyring it must run before
// registrations; already-live contexts are not retrofitted.
func (v *Verifier) EnableFlightRecorder(slots int) {
	if slots <= 0 {
		slots = 0
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
// registers, like EnableTelemetry.
func (v *Verifier) SetKeyring(kr *policy.Keyring) { v.keyring = kr }

// verifierMetrics caches the verifier's telemetry instruments; the
// per-message counters are striped one lane per shard so deliveries into
// different shards never contend on a cache line.
type verifierMetrics struct {
	messages   *telemetry.Counter // per-shard delivered messages
	dropped    *telemetry.Counter // messages dropped on dead contexts
	violations *telemetry.Counter
	kills      *telemetry.Counter
	syncs      *telemetry.Counter
	poisons    *telemetry.Counter   // shards poisoned by delivery-path panics
	retries    *telemetry.Counter   // transient receive errors retried by drains
	recvErrs   *telemetry.Counter   // terminal receive errors that stopped a drain
	batchSize  *telemetry.Histogram // deliverShardBatch run lengths
	pumpStall  *telemetry.Histogram // ns the drain loop spent in RecvBatch
}

// EnableTelemetry attaches the metrics registry. Per-shard counters are
// striped to the shard count; call before concurrent use.
func (v *Verifier) EnableTelemetry(m *telemetry.Metrics) {
	n := len(v.shards)
	v.tm = &verifierMetrics{
		messages:   m.CounterLanes("verifier.messages", n),
		dropped:    m.CounterLanes("verifier.dropped_dead", n),
		violations: m.CounterLanes("verifier.violations", n),
		kills:      m.CounterLanes("verifier.kills", n),
		syncs:      m.CounterLanes("verifier.syncs", n),
		poisons:    m.Counter("verifier.poisoned_shards"),
		retries:    m.Counter("verifier.recv_transient_retries"),
		recvErrs:   m.Counter("verifier.recv_terminal_errors"),
		batchSize:  m.Histogram("verifier.batch_size"),
		pumpStall:  m.Histogram("verifier.pump_stall_ns"),
	}
}

// New creates a verifier with one shard per GOMAXPROCS. gate may be nil for
// standalone policy evaluation.
func New(factory PolicyFactory, gate Gate) *Verifier {
	return NewSharded(factory, gate, 0)
}

// NewSharded creates a verifier with an explicit shard count (<= 0 selects
// GOMAXPROCS). One shard degenerates to the original single-lock design.
func NewSharded(factory PolicyFactory, gate Gate, shards int) *Verifier {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	v := &Verifier{
		shards:          make([]shard, shards),
		health:          make([]shardHealth, shards),
		factory:         factory,
		gate:            gate,
		KillOnViolation: true,
	}
	for i := range v.shards {
		v.shards[i].procs = make(map[int32]*procCtx)
	}
	return v
}

// Shards reports the shard count.
func (v *Verifier) Shards() int { return len(v.shards) }

// shardFor returns the shard owning pid. The multiplicative hash spreads
// consecutive PIDs (the common case) across shards.
func (v *Verifier) shardFor(pid int32) *shard {
	return &v.shards[v.shardIndex(pid)]
}

func (v *Verifier) shardIndex(pid int32) int {
	h := uint32(pid) * 2654435761 // Knuth multiplicative hash
	return int(h % uint32(len(v.shards)))
}

// newFlightRecorder allocates the per-context ring when the feature is armed.
// Called outside the shard lock (ring allocation is not hot-path work).
func (v *Verifier) newFlightRecorder() *telemetry.FlightRecorder {
	if v.flightSlots == 0 {
		return nil
	}
	return telemetry.NewFlightRecorder(v.flightSlots)
}

// newProcCtx builds a context around an already-prepared policy set,
// splitting it by role and by op once at birth so the delivery path neither
// type-asserts nor offers a message to a policy that ignores its op.
func newProcCtx(pid int32, policies []policy.Policy, fr *telemetry.FlightRecorder, dead bool) *procCtx {
	pc := &procCtx{pid: pid, policies: policies, flight: fr, dead: dead, seqValid: true}
	for _, p := range policies {
		if pf, ok := p.(policy.Prefetcher); ok {
			pc.prefetchers = append(pc.prefetchers, pf)
		}
		if sl, ok := p.(policy.Sealer); ok {
			pc.sealers = append(pc.sealers, sl)
			continue
		}
		ops := p.Ops()
		if ops == nil {
			for op := range pc.byOp {
				pc.byOp[op] = append(pc.byOp[op], p)
			}
			continue
		}
		var listed [ipc.NumOps]bool
		for _, op := range ops {
			if op < ipc.NumOps && !listed[op] {
				listed[op] = true
				pc.byOp[op] = append(pc.byOp[op], p)
			}
		}
	}
	return pc
}

// openWindow starts the window at ms[i], the first message of a run of pc's:
// the run's next lookAhead messages at most. The prefetchers touch it, then
// each sealer authenticates and strips it in place, in chain order, a later
// sealer seeing only what the earlier ones passed. It returns the end of the
// authenticated part and, when that is short of the window, the violation of
// the message at end, which deliverSegment raises when its cursor gets there.
// A process that dies inside the window leaves the rest of it touched and
// stripped; those messages are dropped with the dead context like any others.
// *cur names the policy running, for deliverSegment's panic attribution. It is
// a method for the sake of deliverSegment's code generation: written out in
// that loop, the touch pass alone cost the cache-resident chain 8 %.
func (pc *procCtx) openWindow(ms []ipc.Message, i int, cur *policy.Policy) (end int, reject *policy.Violation) {
	end = min(i+lookAhead, len(ms))
	for j := i + 1; j < end; j++ {
		if ms[j].PID != pc.pid {
			end = j
			break
		}
	}
	w := ms[i:end]
	for _, pf := range pc.prefetchers {
		*cur = pf
		pf.Prefetch(w)
	}
	for _, sl := range pc.sealers {
		*cur = sl
		if n, v := sl.UnsealRun(w); v != nil {
			if n >= len(w) { // would land on whoever owns ms[end]; here it kills sl's process
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

// ProcessStarted implements kernel.Listener: allocate a policy context. The
// policy set is constructed, bound to the keyring, and given its
// ProcessStarted hook outside the shard lock — policy construction may be
// arbitrarily expensive and the hooks may take the keyring lock. A process
// routed to a poisoned shard is born dead and killed immediately — the shard
// can no longer validate anything, so admitting the process would let its
// messages pass unevaluated (fail-open).
func (v *Verifier) ProcessStarted(pid int32) {
	si := v.shardIndex(pid)
	s := &v.shards[si]
	poisoned := v.health[si].poisoned.Load()
	policies := v.factory()
	v.bindKeyring(policies)
	for _, p := range policies {
		p.ProcessStarted(pid)
	}
	fr := v.newFlightRecorder()
	s.mu.Lock()
	// seqValid from birth: the sender-side counter starts at registration
	// (§3.1.1, every IPC backend stamps the first Send with Seq 1), so the
	// expected next Seq is known before any message arrives. Leaving the
	// baseline to the first *observed* message would let a reordered or
	// dropped first message establish a bogus baseline and pass CheckSeq —
	// a blind spot the model checker (internal/verify) flushes out as a
	// gate-invariant violation.
	pc := newProcCtx(pid, policies, fr, poisoned)
	s.procs[pid] = pc
	if fr != nil {
		fr.StampEvent(pid, telemetry.FlightRegistered, 0)
	}
	if poisoned {
		// Born dead on a poisoned shard: close the black box immediately —
		// the kill below may race teardown, and the report must exist by the
		// time the gate echo arrives.
		if fr != nil {
			fr.StampEvent(pid, telemetry.FlightShardPoisoned, uint64(si))
		}
		v.freezeLocked(pc, si, nil, v.poisonReason(si))
	}
	s.mu.Unlock()
	if poisoned && v.gate != nil {
		v.gate.Kill(pid, v.poisonReason(si))
	}
}

// ProcessForked implements kernel.Listener: copy the parent's context. The
// parent and child may hash to different shards; the parent's shard lock is
// released before the child's is taken, so no two shard locks are ever held
// at once (no lock-order deadlock). The clones' ProcessForked hooks run
// between the two lock rounds, before any child message can be delivered.
func (v *Verifier) ProcessForked(parent, child int32) {
	ps := v.shardFor(parent)
	ps.mu.Lock()
	var policies []policy.Policy
	if pc, ok := ps.procs[parent]; ok {
		policies = make([]policy.Policy, 0, len(pc.policies))
		for _, p := range pc.policies {
			policies = append(policies, p.Clone())
		}
	}
	ps.mu.Unlock()
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
	fr := v.newFlightRecorder()
	cs := v.shardFor(child)
	cs.mu.Lock()
	// The child gets its own channel, whose counter restarts at 1 — same
	// known-baseline rule as ProcessStarted.
	cs.procs[child] = newProcCtx(child, policies, fr, false)
	if fr != nil {
		fr.StampEvent(child, telemetry.FlightForked, uint64(uint32(parent)))
	}
	cs.mu.Unlock()
}

// ProcessExited implements kernel.Listener: destroy the context.
func (v *Verifier) ProcessExited(pid int32) {
	s := v.shardFor(pid)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.procs, pid)
}

// ProcessKilled implements kernel.KillListener: the kernel reports that pid
// was killed (a verifier-requested kill echoing back, or an epoch-expiry
// kill the verifier never saw). The context is marked dead so messages still
// in flight are dropped rather than evaluated, keeping the context's memory
// bounded between the kill and the eventual ProcessExited. This is also the
// freeze point for kernel-originated kills (epoch expiry, wedged verifier):
// the flight ring stops here and the postmortem is built with the kernel's
// reason. For verifier-originated kills the echo is a no-op — freezeLocked
// already ran at the violation and is idempotent.
func (v *Verifier) ProcessKilled(pid int32, reason string) {
	si := v.shardIndex(pid)
	s := &v.shards[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	if pc, ok := s.procs[pid]; ok {
		pc.dead = true
		v.freezeLocked(pc, si, nil, reason)
	}
}

// gateAction is a deferred kernel interaction: policy evaluation happens
// under the shard lock, kernel calls after it is released (the kernel may
// block or call back into process teardown).
type gateAction struct {
	pid    int32
	kill   bool
	reason string
}

// Deliver processes one message synchronously. It is the compatibility
// wrapper over the batch path, used by deterministic experiments that
// evaluate messages inline at send time.
func (v *Verifier) Deliver(m ipc.Message) {
	si := v.shardIndex(m.PID)
	s := &v.shards[si]
	s.mu.Lock()
	s.one[0] = m
	v.deliverLocked(s, si, s.one[:])
}

// DeliverBatch processes a burst of messages, taking each involved shard's
// lock once per run of same-shard messages instead of once per message.
// Message order within the batch is preserved, which keeps per-process
// ordering intact for any partition of one process's stream into batches.
func (v *Verifier) DeliverBatch(ms []ipc.Message) {
	v.deliverRuns(ms, false)
}

// deliverRuns is the run loop DeliverBatch and Pump share: cut ms into runs of
// same-shard messages (nextRun) and deliver each in order, one shard lock per
// run and never two held. Work is proportional to the number of runs, not the
// shard count. drain selects Pump's form of a delivery: the model checker's
// interleaving point ahead of it — the run is read but not yet delivered, the
// window a lifecycle event (exit, kill, poison) can slip into; the goroutine
// holds no lock there — and safeDeliver's containment around it. Both are per
// run, never per message.
func (v *Verifier) deliverRuns(ms []ipc.Message, drain bool) {
	for start := 0; start < len(ms); {
		si, end := v.nextRun(ms, start)
		if drain {
			dsched.Yield(dsched.PointShardDeliver, ms[start].PID)
			v.safeDeliver(si, ms[start:end])
		} else {
			v.deliverShardBatch(si, ms[start:end])
		}
		start = end
	}
}

// nextRun returns the shard ms[start] validates on and the end of the longest
// run ms[start:end] that validates there with it. Boundaries are found by
// comparing PIDs — the shard hash is paid when the PID changes, not per
// message — and a single-shard verifier takes the whole of ms as one run.
func (v *Verifier) nextRun(ms []ipc.Message, start int) (si, end int) {
	if len(v.shards) == 1 {
		return 0, len(ms)
	}
	pid := ms[start].PID
	si = v.shardIndex(pid)
	for end = start + 1; end < len(ms); end++ {
		if p := ms[end].PID; p != pid {
			// Adjacent processes that hash to the same shard stay one run.
			if v.shardIndex(p) != si {
				break
			}
			pid = p
		}
	}
	return si, end
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

// deliverState is the per-batch evaluation state shared between
// deliverShardBatch and its deliverSegment resumption loop. It lives on
// deliverShardBatch's stack (passed by pointer, never retained), so the
// engine dispatch adds no per-message allocation.
type deliverState struct {
	delivered, dropped, violCount, killCount, syncCount uint64
	checkSeq, killOnViolation                           bool
	pc                                                  *procCtx
	pcPID                                               int32
	pcValid                                             bool
	// i is the cursor into the batch; a segment that dies mid-message leaves
	// it pointing at the offending message so the recover path can attribute
	// and skip it.
	i int
}

// deliverShardBatch evaluates a run of messages that all hash to shard si:
// one lock round for the whole run, with the procCtx lookup cached across
// consecutive messages from the same process (the dominant pattern). On a
// poisoned shard nothing is evaluated: every process in the batch is killed
// fail-closed instead (see poisonShard).
func (v *Verifier) deliverShardBatch(si int, ms []ipc.Message) {
	s := &v.shards[si]
	s.mu.Lock()
	v.deliverLocked(s, si, ms)
}

// deliverLocked is deliverShardBatch from the lock on: it is entered with
// s.mu held and returns with it released, the gate calls made.
func (v *Verifier) deliverLocked(s *shard, si int, ms []ipc.Message) {
	if len(ms) > 0 {
		// Observation point for the model checker: the poison check below is
		// the first act of a delivery round. Once per batch, never per
		// message.
		dsched.Note(dsched.PointPoisonCheck, ms[0].PID)
	}
	if v.health[si].poisoned.Load() {
		v.poisonedDrop(s, si, ms)
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
	// leave the shard mutex held: the drain's recover path (safeDeliver →
	// poisonShard) re-takes it to mark residents dead, and every other
	// process hashed here would otherwise wedge behind a lock nobody drops.
	defer func() {
		if locked {
			s.mu.Unlock()
		}
	}()
	// In the panic-free common case deliverSegment consumes the whole batch
	// in one call; after a contained policy panic it resumes past the
	// offending message, so one misbehaving policy costs its own process,
	// not the rest of the batch and not the shard.
	for st.i < len(ms) {
		acts = v.deliverSegment(s, si, ms, &st, acts)
	}
	locked = false
	s.mu.Unlock()

	if st.delivered > 0 {
		v.totalMessages.Add(st.delivered)
	}
	if tm := v.tm; tm != nil {
		tm.messages.AddAt(si, st.delivered)
		tm.batchSize.ObserveAt(si, uint64(len(ms)))
		if st.dropped > 0 {
			tm.dropped.AddAt(si, st.dropped)
		}
		if st.violCount > 0 {
			tm.violations.AddAt(si, st.violCount)
		}
		if st.killCount > 0 {
			tm.kills.AddAt(si, st.killCount)
		}
		if st.syncCount > 0 {
			tm.syncs.AddAt(si, st.syncCount)
		}
	}
	if v.gate == nil {
		return
	}
	for _, a := range acts {
		if a.kill {
			v.gate.Kill(a.pid, a.reason)
		} else {
			v.gate.NotifySyncReady(a.pid)
		}
	}
}

// deliverSegment runs the engine over ms[st.i:] under the shard lock held by
// deliverLocked. It works a window at a time (procCtx.openWindow): at the
// first message of a run of one live process, that process's Prefetchers
// touch the table lines the next lookAhead messages of the run will need and
// its Sealers authenticate and strip those messages in place; then each
// message of the window gets its sequence check and goes to the policies that
// consume its Op (procCtx.byOp), in chain order. A sealer's reject is raised
// when the cursor reaches the rejected message. The first violating policy
// is the one the kill is attributed to via Violation.Policy.
//
// A panic inside a policy's Prefetch, UnsealRun or Handle is contained to that
// policy's process: the recover below converts it into an attributed
// violation and kill, marks the context dead, and returns with the cursor past
// the offending message — the window's first, for the two window passes — so
// deliverLocked resumes the batch. Panics outside policy code (cur == nil)
// are delivery-path bugs and re-panic into safeDeliver's shard-poisoning
// containment.
//
// cur — the policy whose Prefetch/UnsealRun/Handle is executing right now, nil
// outside policy code — is the panic-attribution anchor. It is a local captured by
// the deferred recover (not a deliverState field) so that the interface
// method calls on it in the cold recover path don't make escape analysis
// treat the whole deliverState as leaking, which would heap-allocate the
// gate-action buffer once per batch.
// The gate-action list is threaded through as a parameter and (named)
// result rather than living in deliverState: appending through a pointed-to
// struct field would make escape analysis move the caller's stack buffer to
// the heap, reintroducing a per-batch allocation on the zero-alloc drain.
func (v *Verifier) deliverSegment(s *shard, si int, ms []ipc.Message, st *deliverState, acts []gateAction) (out []gateAction) {
	out = acts
	var cur policy.Policy
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if cur == nil || st.pc == nil {
			panic(r)
		}
		name := cur.Name()
		viol := &policy.Violation{PID: st.pc.pid, Op: ms[st.i].Op, Policy: name,
			Reason: fmt.Sprintf("policy %q panicked: %v", name, r)}
		out = append(out, v.condemn(st, si, &ms[st.i], viol, telemetry.FlightPolicyPanic))
		st.i++ // resume after the detonating message
	}()
	// The open window ends at winEnd; reject, when set, is the violation a
	// sealer raised for ms[winEnd]. A segment starts with no window open.
	winEnd := st.i
	var reject *policy.Violation
	for ; st.i < len(ms); st.i++ {
		m := &ms[st.i]
		if !st.pcValid || m.PID != st.pcPID {
			st.pc = s.procs[m.PID]
			st.pcPID, st.pcValid = m.PID, true
		}
		pc := st.pc
		if pc == nil {
			// Message from an unregistered process: ignore. Authenticity
			// is the kernel's job (PID register, §3.1.1); an unknown PID
			// means the process never enabled HerQules.
			continue
		}
		if pc.dead {
			// The process is already being killed: drop instead of
			// evaluating, so one fatal violation yields exactly one kill
			// action and the context stops accumulating state.
			st.dropped++
			pc.dropped++
			continue
		}
		st.delivered++
		pc.messages++
		// A window never outlasts its process's run, so a live message at or
		// past winEnd opens the next window or is the one a sealer rejected.
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
				out = append(out, v.condemn(st, si, m, reject, telemetry.FlightSealerReject))
				continue
			}
		}
		if st.checkSeq && pc.seqValid && m.Seq != pc.lastSeq+1 {
			viol := &policy.Violation{PID: m.PID, Op: m.Op, Policy: "seq",
				Reason: seqViolationReason(m.Seq, pc.lastSeq)}
			// Integrity violations are always fatal (§3.1.1).
			out = append(out, v.condemn(st, si, m, viol, telemetry.FlightSeqGap))
			continue
		}
		pc.lastSeq, pc.seqValid = m.Seq, true

		var violated *policy.Violation
		for _, p := range pc.byOp[min(m.Op, ipc.NumOps)] {
			cur = p
			viol := p.Handle(*m)
			if viol != nil {
				if viol.Policy == "" {
					viol.Policy = p.Name()
				}
				if violated == nil {
					violated = viol
				}
				pc.violations = append(pc.violations, viol)
				st.violCount++
				v.noteViolation(viol.Policy)
			}
		}
		cur = nil
		// Flight stamp: exactly one record per evaluated message with its
		// final policy-chain outcome. This is the hot-path cost of the black
		// box — a nil check on clean configs, one ring store when armed.
		if fr := pc.flight; fr != nil {
			code := telemetry.FlightOK
			if violated != nil {
				code = telemetry.FlightViolated
			}
			fr.StampMessage(m.PID, uint16(m.Op), m.Seq, m.Arg1^m.Arg2^m.Arg3, code)
		}
		if violated != nil && st.killOnViolation {
			pc.dead = true
			v.freezeLocked(pc, si, violated, violated.Reason)
			out = append(out, gateAction{pid: m.PID, kill: true, reason: violated.Reason})
			st.killCount++
			continue
		}
		if m.Op == ipc.OpSyscall {
			// A System-Call message indicates all outstanding messages
			// have been processed; resume the syscall unless a prior
			// violation is pending and fatal (§2.2).
			if len(pc.violations) == 0 || !st.killOnViolation {
				out = append(out, gateAction{pid: m.PID})
				st.syncCount++
			}
		}
	}
	return out
}

// condemn records viol, raised by message m, as the violation st.pc dies of
// whatever KillOnViolation says — a sealer reject, a counter violation, a
// policy panic — and returns the kill to issue once the shard lock drops: the
// context goes dead, its black box gets m stamped with code and is frozen.
func (v *Verifier) condemn(st *deliverState, si int, m *ipc.Message, viol *policy.Violation, code telemetry.FlightCode) gateAction {
	pc := st.pc
	pc.violations = append(pc.violations, viol)
	st.violCount++
	pc.dead = true
	v.noteViolation(viol.Policy)
	if fr := pc.flight; fr != nil {
		fr.StampMessage(m.PID, uint16(m.Op), m.Seq, m.Arg1^m.Arg2^m.Arg3, code)
	}
	v.freezeLocked(pc, si, viol, viol.Reason)
	st.killCount++
	return gateAction{pid: pc.pid, kill: true, reason: viol.Reason}
}

// safeDeliver is the drain loop's delivery entry point and the outer ring of
// panic containment. Policy panics never reach it — deliverSegment converts
// those into an attributed kill of the one offending process — so a panic
// arriving here is a bug in the delivery path itself (or in a gate call made
// from it), and the shard's state can no longer be trusted. The shard is
// poisoned — every process resident on it is killed fail-closed, and
// everything subsequently routed to it dies on arrival — instead of the panic
// tearing down the whole verifier process and silently un-gating every
// monitored program. The drain that caught it keeps reading: its producer
// never wedges behind a dead consumer, and its later bursts take
// poisonedDrop. The poisoned/degraded state is checked once per delivered
// run inside deliverLocked, never per message.
func (v *Verifier) safeDeliver(si int, ms []ipc.Message) {
	defer func() {
		if r := recover(); r != nil {
			v.poisonShard(si, fmt.Sprintf("verifier shard %d poisoned: worker panic: %v", si, r))
		}
	}()
	v.deliverShardBatch(si, ms)
}

// poisonShard marks shard si permanently failed: the poisoned flag diverts
// all future deliveries to the fail-closed drop path, every resident process
// is killed, and the kernel watchdog (WedgedFor) reports the shard wedged so
// a process already stalled in SyscallEnter dies at its epoch deadline with
// an attributable reason. First caller wins; later calls are no-ops.
func (v *Verifier) poisonShard(si int, reason string) {
	h := &v.health[si]
	h.reason.CompareAndSwap(nil, &reason)
	if h.poisoned.Swap(true) {
		return // already poisoned
	}
	s := &v.shards[si]
	s.mu.Lock()
	pids := make([]int32, 0, len(s.procs))
	for pid, pc := range s.procs {
		if !pc.dead {
			pc.dead = true
			pids = append(pids, pid)
		}
		// Every resident — already-dead ones included — gets its black box
		// closed out with the poison event: the shard's state is suspect
		// from here on, so no later stamp may be trusted.
		if fr := pc.flight; fr != nil {
			fr.StampEvent(pid, telemetry.FlightShardPoisoned, uint64(si))
		}
		v.freezeLocked(pc, si, nil, reason)
	}
	s.mu.Unlock()
	if tm := v.tm; tm != nil {
		tm.poisons.Inc()
	}
	if v.gate != nil {
		for _, pid := range pids {
			v.gate.Kill(pid, v.poisonReason(si))
		}
	}
}

// PoisonShard marks shard si permanently failed exactly as a contained
// delivery-path panic would (see poisonShard): future deliveries fail closed,
// residents are killed, WedgedFor reports the shard wedged. Exported for
// the model checker (internal/verify), which explores shard poisoning as an
// explicit lifecycle transition rather than by throwing a real panic.
func (v *Verifier) PoisonShard(si int, reason string) {
	v.poisonShard(si, reason)
}

// ShardOf reports the shard index pid's messages validate on — the public
// name for the PID-hash routing, so tests and the model checker can pick
// PIDs that do (or do not) share a shard without duplicating the hash.
func (v *Verifier) ShardOf(pid int32) int { return v.shardIndex(pid) }

// poisonReason returns the kill reason recorded when shard si was poisoned.
func (v *Verifier) poisonReason(si int) string {
	if r := v.health[si].reason.Load(); r != nil {
		return *r
	}
	return fmt.Sprintf("verifier shard %d poisoned", si)
}

// poisonedDrop is the fail-closed delivery path of a poisoned shard: no
// message is evaluated (the shard's policy state is suspect), and every
// not-yet-dead process appearing in the batch is killed — a process whose
// messages cannot be validated must not be allowed to pass gates. Like
// deliverLocked, it is entered with s.mu held and releases it.
func (v *Verifier) poisonedDrop(s *shard, si int, ms []ipc.Message) {
	var killPIDs []int32
	var dropped uint64
	for i := range ms {
		pc := s.procs[ms[i].PID]
		if pc == nil {
			continue
		}
		dropped++
		pc.dropped++
		if !pc.dead {
			pc.dead = true
			killPIDs = append(killPIDs, pc.pid)
			if fr := pc.flight; fr != nil {
				fr.StampEvent(pc.pid, telemetry.FlightShardPoisoned, uint64(si))
			}
			v.freezeLocked(pc, si, nil, v.poisonReason(si))
		}
	}
	s.mu.Unlock()
	if tm := v.tm; tm != nil && dropped > 0 {
		tm.dropped.AddAt(si, dropped)
	}
	if v.gate != nil {
		for _, pid := range killPIDs {
			v.gate.Kill(pid, v.poisonReason(si))
		}
	}
}

// PoisonedShards reports how many shards have been poisoned by contained
// delivery-path panics. Non-zero means the verifier is running degraded:
// processes hashed to those shards are being killed fail-closed. Surfaced
// through supervisor.Health and /healthz.
func (v *Verifier) PoisonedShards() int {
	n := 0
	for i := range v.health {
		if v.health[i].poisoned.Load() {
			n++
		}
	}
	return n
}

// WedgedFor implements the kernel's watchdog probe (kernel.Watchdog): it
// reports whether the verifier can still make validation progress for pid.
// It reads only atomics — the kernel calls it with its own lock held, so it
// must never take a shard lock (lock-order inversion with the gate path).
func (v *Verifier) WedgedFor(pid int32) (bool, string) {
	si := v.shardIndex(pid)
	if v.health[si].poisoned.Load() {
		return true, v.poisonReason(si)
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

// Violations returns the violations recorded for pid.
func (v *Verifier) Violations(pid int32) []*policy.Violation {
	s := v.shardFor(pid)
	s.mu.Lock()
	defer s.mu.Unlock()
	if pc, ok := s.procs[pid]; ok {
		return append([]*policy.Violation(nil), pc.violations...)
	}
	return nil
}

// Messages returns the number of messages processed for pid.
func (v *Verifier) Messages(pid int32) uint64 {
	s := v.shardFor(pid)
	s.mu.Lock()
	defer s.mu.Unlock()
	if pc, ok := s.procs[pid]; ok {
		return pc.messages
	}
	return 0
}

// TotalMessages returns the number of messages processed for all processes.
func (v *Verifier) TotalMessages() uint64 {
	return v.totalMessages.Load()
}

// ProcStats is the verifier-side per-process attribution row: one monitored
// process's share of the shard it validates on. The supervisor merges it
// with the kernel's per-process figures for /procs and System.Stats.
type ProcStats struct {
	PID        int32  `json:"pid"`
	Messages   uint64 `json:"messages"`   // validated deliveries
	Dropped    uint64 `json:"dropped"`    // dropped after the context died
	Violations uint64 `json:"violations"` // recorded policy violations
	Dead       bool   `json:"dead"`       // killed; context awaiting teardown
}

// ProcStats returns the per-process verifier statistics for pid in one lock
// round; ok is false when the process has no live context (never registered,
// or already exited).
func (v *Verifier) ProcStats(pid int32) (ProcStats, bool) {
	s := v.shardFor(pid)
	s.mu.Lock()
	defer s.mu.Unlock()
	pc, ok := s.procs[pid]
	if !ok {
		return ProcStats{}, false
	}
	return procCtxStats(pc), true
}

// AllProcStats returns one row per live verifier context, ascending by PID.
// Each shard is locked once; like the kernel's process listing, the result
// is a snapshot — contexts may come and go as soon as a shard is released.
func (v *Verifier) AllProcStats() []ProcStats {
	var out []ProcStats
	for i := range v.shards {
		s := &v.shards[i]
		s.mu.Lock()
		for _, pc := range s.procs {
			out = append(out, procCtxStats(pc))
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

func procCtxStats(pc *procCtx) ProcStats {
	return ProcStats{
		PID:        pc.pid,
		Messages:   pc.messages,
		Dropped:    pc.dropped,
		Violations: uint64(len(pc.violations)),
		Dead:       pc.dead,
	}
}

// Entries returns the current and maximum metadata entries across the
// policies of pid (the §5.4 memory-overhead metric). Max is only available
// for policies that track it.
func (v *Verifier) Entries(pid int32) (cur, max int) {
	s := v.shardFor(pid)
	s.mu.Lock()
	defer s.mu.Unlock()
	pc, ok := s.procs[pid]
	if !ok {
		return 0, 0
	}
	for _, p := range pc.policies {
		cur += p.Entries()
		type maxer interface{ MaxEntries() int }
		if mp, ok := p.(maxer); ok {
			max += mp.MaxEntries()
		}
	}
	return cur, max
}

// Policy returns the first attached policy of pid matching name — a registry
// name such as "cfi" or "counter" (policy.Names) — for examples and tests
// that read policy state (e.g. counter values).
func (v *Verifier) Policy(pid int32, name string) policy.Policy {
	s := v.shardFor(pid)
	s.mu.Lock()
	defer s.mu.Unlock()
	if pc, ok := s.procs[pid]; ok {
		for _, p := range pc.policies {
			if p.Name() == name {
				return p
			}
		}
	}
	return nil
}
