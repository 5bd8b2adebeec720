// Package hqnet is the networked attestation plane: it hosts the resident
// supervisor.System (kernel + verifier) behind TCP and Unix-domain
// listeners so monitored programs on the other end of a real network
// transport — one that can drop, stall, duplicate and lie — attest into the
// same enforcement domain local processes do.
//
// The wire format is the 48-byte AppendWrite frame the fd channels already
// speak (ipc.FrameDecoder / ipc.FrameWriter, partial-frame carry included);
// session control rides in the reserved ipc.Op range (OpHello..OpGoodbye)
// and terminates at the connection layer — control frames never reach the
// verifier's policy chain.
//
// The robustness core is the connection lifecycle, and every edge of it
// fails closed:
//
//   - Admission is a HELLO handshake: version check, tenant quota, global
//     session cap. Refusals are explicit (OpReject) and leave nothing
//     admitted.
//   - Every admitted session holds a heartbeat *lease*. Any frame renews
//     it; a lease that runs out kills the resident process with
//     kernel.ReasonLeaseExpired — a severed transport is never allowed to
//     linger as a silent, unkillable context, and never masquerades as a
//     message-counter gap.
//   - A severed connection does not end the session: the client resumes
//     with its token inside the lease and replays every frame past the
//     daemon's cumulative ack, so the verifier's CheckSeq stream stays
//     gap-free across reconnects.
//   - Protocol violations (duplicate HELLO, forged PID, garbage framing)
//     sever the connection; the lease then disposes of the process unless a
//     legitimate resume arrives first.
package hqnet

import (
	"strings"

	"herqules/internal/kernel"
)

// WireVersion is the protocol revision carried in OpHello.Arg1; the daemon
// rejects clients it cannot serve rather than guessing.
const WireVersion = 1

// Rejection reasons carried in OpReject.Arg1.
const (
	// RejectQuota: the tenant's session quota or the global session cap is
	// exhausted. Admission applies backpressure by refusal, not by queueing
	// unbounded half-open sessions.
	RejectQuota uint64 = iota + 1
	// RejectUnknownSession: a resume named a token the daemon does not hold
	// (expired, finished, or forged).
	RejectUnknownSession
	// RejectDraining: the daemon is shutting down and admits nothing new.
	RejectDraining
	// RejectProtocol: the first frame was not a well-formed HELLO/RESUME.
	RejectProtocol
	// RejectVersion: WireVersion mismatch.
	RejectVersion
)

// rejectNames maps rejection reasons to operator-readable text.
var rejectNames = map[uint64]string{
	RejectQuota:          "admission quota exhausted",
	RejectUnknownSession: "unknown or expired session",
	RejectDraining:       "daemon draining",
	RejectProtocol:       "protocol violation",
	RejectVersion:        "wire version mismatch",
}

// RejectText names a rejection reason.
func RejectText(code uint64) string {
	if s, ok := rejectNames[code]; ok {
		return s
	}
	return "rejected"
}

// OpWelcome.Arg3 flags.
const (
	// WelcomeKeyed: an OpSessionKey frame follows the welcome, carrying the
	// MAC key the kernel programmed for this process. The session is the
	// trusted provisioning path the local plane performs in-memory.
	WelcomeKeyed uint64 = 1 << 0
)

// Gate verdicts carried in OpGateResult.Arg1.
const (
	// GatePass: validation caught up; the system call may proceed.
	GatePass uint64 = iota
	// GateKilled: the process was killed while (or before) gating; Arg2
	// carries the reason code.
	GateKilled
)

// Kill reason codes carried in OpGateResult.Arg2 and OpKillNotice.Arg1. The
// daemon's forensics hold the authoritative reason string; the wire carries
// enough for the client to attribute the kill class.
const (
	ReasonCodeOther uint64 = iota
	ReasonCodeLease
	ReasonCodeEpoch
	ReasonCodeWedged
	ReasonCodeShutdown
)

// reasonCode classifies a kernel kill-reason string for the wire. Contains,
// not HasPrefix: the gate path reports kills through SyscallEnter's error,
// which wraps the reason as "kernel: pid N killed: <reason>", while the kill
// listener passes the reason bare — both must classify identically.
func reasonCode(reason string) uint64 {
	switch {
	case strings.Contains(reason, kernel.ReasonLeaseExpired):
		return ReasonCodeLease
	case strings.Contains(reason, kernel.ReasonWedgedVerifier):
		return ReasonCodeWedged
	case strings.Contains(reason, kernel.ReasonEpochExpired):
		return ReasonCodeEpoch
	case strings.Contains(reason, "shutdown"):
		return ReasonCodeShutdown
	default:
		return ReasonCodeOther
	}
}

// ReasonText reconstructs the client-side kill reason for a wire code. Lease
// and epoch kills round-trip to the kernel's canonical strings so client-side
// attribution matches the daemon's forensics.
func ReasonText(code uint64) string {
	switch code {
	case ReasonCodeLease:
		return kernel.ReasonLeaseExpired
	case ReasonCodeEpoch:
		return kernel.ReasonEpochExpired
	case ReasonCodeWedged:
		return kernel.ReasonWedgedVerifier
	case ReasonCodeShutdown:
		return "hqd: daemon shutdown"
	default:
		return "killed by verifier (see daemon forensics)"
	}
}
