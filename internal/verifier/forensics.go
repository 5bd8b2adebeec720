package verifier

import (
	"strconv"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/policy"
	"herqules/internal/telemetry"
)

// This file turns a frozen flight ring into the structured postmortem the
// observability plane serves: freezeLocked runs at every kill decision
// (violation, policy panic, sealer reject, counter gap, kernel epoch expiry,
// poison) and snapshots the context into an immutable ForensicReport.

// FlightEntry is one decoded flight-ring record: a per-message stamp from the
// delivery path ("message") or a lifecycle event ("lifecycle"). Decoding —
// op names, outcome strings, hex digests — happens once at freeze time, never
// on the hot path.
type FlightEntry struct {
	Kind string `json:"kind"` // "message" or "lifecycle"
	Code string `json:"code"` // chain outcome or lifecycle event name
	// Message-record fields.
	Op  string `json:"op,omitempty"`  // ipc op name, e.g. "pointer-check"
	Seq uint64 `json:"seq,omitempty"` // sender-side message counter
	Arg string `json:"arg,omitempty"` // hex XOR digest of the message args
	// Lifecycle-record fields.
	Value     uint64 `json:"value,omitempty"`      // event payload (stall ns, syscall no, parent pid)
	UnixNanos int64  `json:"unix_nanos,omitempty"` // wall clock of the event
}

// PolicyDecision is one row of the per-policy decision trail: every violation
// the chain recorded for the process, in order, with the fatal one marked.
type PolicyDecision struct {
	Policy string `json:"policy"`
	Op     string `json:"op"`
	Reason string `json:"reason"`
	Fatal  bool   `json:"fatal,omitempty"`
}

// ForensicReport is the verifier-side postmortem of one killed process,
// frozen at the kill decision. The supervisor wraps it with kernel-side
// context (syscalls, stalls, degraded mode) before serving it.
type ForensicReport struct {
	PID        int32  `json:"pid"`
	Policy     string `json:"policy,omitempty"` // attributed policy (empty for kernel/poison kills)
	KillReason string `json:"kill_reason"`

	Messages        uint64 `json:"messages"`          // validated deliveries before death
	Dropped         uint64 `json:"dropped,omitempty"` // dropped after the context died
	FrozenUnixNanos int64  `json:"frozen_unix_nanos"` // wall clock of the freeze

	// Window is the retained flight-ring snapshot, oldest first; the ring
	// keeps the last WindowCap records of RecordsTotal ever stamped,
	// RecordsOverwritten of which were displaced before the freeze.
	Window             []FlightEntry `json:"window"`
	WindowCap          int           `json:"window_cap"`
	RecordsTotal       uint64        `json:"records_total"`
	RecordsOverwritten uint64        `json:"records_overwritten,omitempty"`

	Decisions []PolicyDecision `json:"decisions,omitempty"`

	// Poisoned is set when a delivery-path panic poisoned the context
	// (Verifier.poison) before the freeze, with the panic's reason.
	Poisoned     bool   `json:"poisoned,omitempty"`
	PoisonReason string `json:"poison_reason,omitempty"`
}

// freezeLocked closes pid's black box: stamps the terminal kill event,
// freezes the ring, and publishes the immutable report, which marks the
// context dead. Caller holds pc.mu. fatal is the attributed violation (nil
// for kernel-originated or poison kills); pending is the messages the run
// being delivered has evaluated and not yet published to pc.messages (0
// outside a run), which the report counts. Idempotent — the first kill
// decision wins, later echoes (e.g. the kernel reporting back a
// verifier-requested kill) are no-ops.
func (v *Verifier) freezeLocked(pc *procCtx, fatal *policy.Violation, reason string, pending uint64) {
	if pc.report.Load() != nil {
		return
	}
	fr := pc.flight
	fr.StampEvent(pc.pid, telemetry.FlightKilled, 0)
	fr.Freeze()

	rep := &ForensicReport{
		PID:                pc.pid,
		KillReason:         reason,
		Messages:           pc.messages.Load() + pending,
		Dropped:            pc.dropped.Load(),
		FrozenUnixNanos:    time.Now().UnixNano(),
		WindowCap:          fr.Cap(),
		RecordsTotal:       fr.Total(),
		RecordsOverwritten: fr.Overwritten(),
	}
	if fatal != nil {
		rep.Policy = fatal.Policy
	}
	recs := fr.Records()
	rep.Window = make([]FlightEntry, len(recs))
	for i, r := range recs {
		e := FlightEntry{Code: r.Code.String()}
		if r.Kind == telemetry.FlightMessage {
			e.Kind = "message"
			e.Op = ipc.Op(r.Op).String()
			e.Seq = r.Seq
			e.Arg = "0x" + strconv.FormatUint(r.Arg, 16)
		} else {
			e.Kind = "lifecycle"
			e.Value = r.Arg
			e.UnixNanos = r.Nanos
		}
		rep.Window[i] = e
	}
	if n := len(pc.violations); n > 0 {
		rep.Decisions = make([]PolicyDecision, n)
		for i, viol := range pc.violations {
			rep.Decisions[i] = PolicyDecision{
				Policy: viol.Policy,
				Op:     viol.Op.String(),
				Reason: viol.Reason,
				Fatal:  viol == fatal,
			}
		}
	}
	if r := pc.poison.Load(); r != nil {
		rep.Poisoned, rep.PoisonReason = true, *r
	}
	pc.report.Store(rep)
}

// Forensics returns the frozen postmortem for pid, if one exists (the
// process was killed and its context has not been torn down yet), without
// the context's lock. The report is immutable; callers may retain it. The
// supervisor retains reports across teardown.
func (v *Verifier) Forensics(pid int32) (*ForensicReport, bool) {
	if pc := v.lookup(pid); pc != nil {
		if rep := pc.report.Load(); rep != nil {
			return rep, true
		}
	}
	return nil, false
}

// StampFlightEvent implements kernel.Listener: the kernel relays lifecycle
// events (gate stalls, epoch expiries, degraded-mode bypasses, lease
// expiries) into the process's ring. Takes the process's context lock, so the
// kernel calls it outside its own mutex, like the other listener callbacks.
func (v *Verifier) StampFlightEvent(pid int32, code telemetry.FlightCode, value uint64) {
	v.withProc(pid, func(pc *procCtx) { pc.flight.StampEvent(pid, code, value) })
}
