package telemetry

import "time"

// This file implements the per-process flight recorder: a fixed-slot ring of
// compact records the verifier hot path stamps once per delivered message and
// the kernel stamps with lifecycle events (register/fork/gate/epoch/kill).
// When the process dies the ring is frozen in place — the last N records
// before the kill are exactly the black-box window a postmortem needs.
//
// Concurrency model: a FlightRecorder has NO internal synchronization. Every
// recorder belongs to exactly one verifier procCtx, and every access — hot
// stamps from the delivery loop, lifecycle stamps relayed from the kernel,
// the freeze, and the snapshot read — happens under that context's own
// mutex. Single writer domain, plain stores: the per-message stamp is a
// bounds-free ring write plus an increment, no atomics, no allocation, no
// time.Now (wall-clock stamps are reserved for the cold lifecycle events).

// FlightKind distinguishes the two record classes sharing the ring.
type FlightKind uint8

const (
	// FlightMessage is a per-message stamp from the verifier delivery path.
	FlightMessage FlightKind = iota + 1
	// FlightLifecycle is a process-lifecycle stamp (register, fork, gate
	// stall, epoch expiry, kill, poison).
	FlightLifecycle
)

// FlightCode is the record's outcome (message records) or event (lifecycle
// records). The two ranges are disjoint so a code renders unambiguously.
type FlightCode uint8

// Message outcomes: the policy-chain result for one delivered message.
const (
	// FlightOK: every attached policy passed the message.
	FlightOK FlightCode = iota
	// FlightViolated: a policy's Handle returned a violation.
	FlightViolated
	// FlightSealerReject: a sealer refused to authenticate the message.
	FlightSealerReject
	// FlightSeqGap: the §3.1.1 message-counter check failed.
	FlightSeqGap
	// FlightPolicyPanic: a policy panicked evaluating the message (contained
	// and converted to an attributed kill).
	FlightPolicyPanic
)

// Lifecycle events. Offset so no code collides with a message outcome.
const (
	// FlightRegistered: the process enabled HerQules.
	FlightRegistered FlightCode = iota + 32
	// FlightForked: this context was cloned from a parent (value = parent PID).
	FlightForked
	// FlightKilled: the kill decision for this process (stamped at freeze).
	FlightKilled
	// FlightGateStall: a gated system call waited for validation
	// (value = stall nanoseconds).
	FlightGateStall
	// FlightEpochExpired: the synchronization epoch expired at the gate
	// (value = syscall number).
	FlightEpochExpired
	// FlightDegradedAllow: an expired epoch was bypassed under the log-only
	// degraded policy (value = syscall number).
	FlightDegradedAllow
	// FlightPoisoned: a delivery-path panic poisoned this context (value 0).
	FlightPoisoned
	// FlightLeaseGranted: the networked plane admitted this process and
	// granted its connection lease (value = lease nanoseconds).
	FlightLeaseGranted
	// FlightLeaseRenewed: a severed session resumed before its lease ran
	// out (value = resume count). Stamped on resume, not on every
	// heartbeat — heartbeats would flood the bounded ring.
	FlightLeaseRenewed
	// FlightLeaseExpired: the connection lease ran out and the process was
	// killed fail-closed (value = nanoseconds past the deadline).
	FlightLeaseExpired
)

var flightCodeNames = [...]string{
	FlightOK:            "ok",
	FlightViolated:      "violation",
	FlightSealerReject:  "sealer-reject",
	FlightSeqGap:        "seq-violation",
	FlightPolicyPanic:   "policy-panic",
	FlightRegistered:    "registered",
	FlightForked:        "forked",
	FlightKilled:        "killed",
	FlightGateStall:     "gate-stall",
	FlightEpochExpired:  "epoch-expired",
	FlightDegradedAllow: "degraded-allow",
	FlightPoisoned:      "poisoned",
	FlightLeaseGranted:  "lease-granted",
	FlightLeaseRenewed:  "lease-renewed",
	FlightLeaseExpired:  "lease-expired",
}

func (c FlightCode) String() string {
	if int(c) < len(flightCodeNames) && flightCodeNames[c] != "" {
		return flightCodeNames[c]
	}
	return "code(" + itoa(uint64(c)) + ")"
}

// itoa is a minimal uint formatter so String needs no fmt import.
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// FlightRecord is one slot of the ring: 32 bytes, plain data, no pointers.
// Message records carry Seq/Op/Arg (an XOR digest of the message arguments —
// enough to correlate with the sender's stream without copying 24 bytes of
// payload per message); lifecycle records carry the event payload in Arg and
// a wall-clock stamp in Nanos. Message records leave Nanos zero: reading the
// clock per message would dominate the stamp's cost budget.
type FlightRecord struct {
	Seq   uint64
	Arg   uint64
	Nanos int64
	PID   int32
	Op    uint16
	Kind  FlightKind
	Code  FlightCode
}

// Flight-recorder sizing bounds. NewFlightRecorder rounds the requested slot
// count up to a power of two within [MinFlightSlots, MaxFlightSlots]; the
// default the facade uses is DefaultFlightSlots.
const (
	MinFlightSlots     = 16
	MaxFlightSlots     = 1 << 16
	DefaultFlightSlots = 256
)

// FlightRecorder is the fixed-slot ring. All methods must be called under the
// owning context's mutex (see the package comment above); none allocate after
// construction except Records, which copies the window out.
type FlightRecorder struct {
	buf    []FlightRecord
	mask   uint64
	next   uint64 // total records ever stamped; next&mask is the write slot
	frozen bool
}

// NewFlightRecorder allocates a ring of at least slots records (rounded up to
// a power of two, clamped to [MinFlightSlots, MaxFlightSlots]).
func NewFlightRecorder(slots int) *FlightRecorder {
	n := MinFlightSlots
	for n < slots && n < MaxFlightSlots {
		n <<= 1
	}
	return &FlightRecorder{buf: make([]FlightRecord, n), mask: uint64(n - 1)}
}

// StampMessage records one delivered message's policy-chain outcome. This is
// the hot-path stamp: one frozen check, one slot store, one increment.
func (r *FlightRecorder) StampMessage(pid int32, op uint16, seq, arg uint64, code FlightCode) {
	if r.frozen {
		return
	}
	// Masking with len-1 (not the equivalent r.mask field) lets the compiler
	// prove the index in bounds and drop the check from the hot path; the
	// len==0 guard supplies the proof and never fires (the ring is always
	// allocated at least MinFlightSlots deep).
	buf := r.buf
	if len(buf) == 0 {
		return
	}
	b := &buf[r.next&uint64(len(buf)-1)]
	b.Seq = seq
	b.Arg = arg
	b.Nanos = 0
	b.PID = pid
	b.Op = op
	b.Kind = FlightMessage
	b.Code = code
	r.next++
}

// StampEvent records one lifecycle event with a wall-clock stamp. Cold path:
// registrations, forks, gate stalls, epoch expiries, kills.
func (r *FlightRecorder) StampEvent(pid int32, code FlightCode, value uint64) {
	if r.frozen {
		return
	}
	b := &r.buf[r.next&r.mask]
	b.Seq = 0
	b.Arg = value
	b.Nanos = time.Now().UnixNano()
	b.PID = pid
	b.Op = 0
	b.Kind = FlightLifecycle
	b.Code = code
	r.next++
}

// Freeze stops the ring: every later stamp is a no-op, so the window captured
// at the kill decision survives any messages still in flight. Idempotent.
func (r *FlightRecorder) Freeze() { r.frozen = true }

// Frozen reports whether the ring has been frozen.
func (r *FlightRecorder) Frozen() bool { return r.frozen }

// Total reports how many records were ever stamped (including overwritten).
func (r *FlightRecorder) Total() uint64 { return r.next }

// Overwritten reports how many records the ring has discarded: stamps beyond
// capacity overwrite the oldest slot.
func (r *FlightRecorder) Overwritten() uint64 {
	if n := uint64(len(r.buf)); r.next > n {
		return r.next - n
	}
	return 0
}

// Cap reports the ring capacity in records.
func (r *FlightRecorder) Cap() int { return len(r.buf) }

// Records returns a copy of the retained window, oldest first.
func (r *FlightRecorder) Records() []FlightRecord {
	cnt := r.next
	if n := uint64(len(r.buf)); cnt > n {
		cnt = n
	}
	out := make([]FlightRecord, 0, cnt)
	for i := r.next - cnt; i < r.next; i++ {
		out = append(out, r.buf[i&r.mask])
	}
	return out
}

// FlightStamper relays lifecycle events into a process's flight recorder
// across the kernel/verifier boundary: the kernel knows the events (gate
// stalls, epoch expiries, degraded bypasses) but the verifier owns the rings.
// *verifier.Verifier implements it by locking the owning process context, so
// the kernel must only call it OUTSIDE its own mutex — the context lock is
// taken inside.
type FlightStamper interface {
	StampFlightEvent(pid int32, code FlightCode, value uint64)
}
