// Package ipc defines the message format and inter-process communication
// primitives evaluated by the HerQules paper (Table 2). A monitored program
// sends fixed-size messages describing policy-relevant execution events to a
// verifier running in a different protection domain.
//
// The package provides the software primitives the paper compares against
// (POSIX-style message queue, named pipe, socket, raw shared memory, and a
// light-weight-context model), all behind a common Sender/Receiver pair. The
// two proposed hardware primitives, AppendWrite-FPGA and AppendWrite-µarch,
// live in the sibling packages fpga and uarch and implement the same
// interfaces.
package ipc

import "fmt"

// Op is the 4-byte operation code carried by every message. The semantics of
// the operation arguments are policy-dependent (HerQules §3.1).
type Op uint32

// Operation codes. The pointer-integrity codes implement the HQ-CFI policy
// (§4.1.3, §4.1.5); the allocation codes implement the memory-safety policy
// sketch (§4.2); Syscall implements bounded asynchronous validation (§2.2).
const (
	OpNop Op = iota

	// OpInit announces that a monitored program has enabled HerQules. Arg1
	// carries the program's entry address, Arg2 the global-pointer table
	// base (used to register relocated global control-flow pointers).
	OpInit

	// OpSyscall is the system-call synchronization message (§2.2): it tells
	// the verifier that all outstanding messages for this process have been
	// processed, so the kernel may resume the pending system call. Arg1
	// carries the system call number.
	OpSyscall

	// Control-flow pointer-integrity operations (§4.1.3).
	OpPointerDefine          // define pointer at Arg1 with value Arg2
	OpPointerCheck           // check pointer at Arg1 has value Arg2
	OpPointerInvalidate      // remove pointer at Arg1
	OpPointerCheckInvalidate // check then remove (backward edges, §4.1.5)
	OpPointerBlockCopy       // copy pointers in [Arg1,Arg1+Arg3) to [Arg2,...)
	OpPointerBlockMove       // move pointers (non-overlapping, realloc)
	OpPointerBlockInvalidate // invalidate pointers in [Arg1, Arg1+Arg2)

	// Memory-safety allocation operations (§4.2).
	OpAllocCreate     // create allocation [Arg1, Arg1+Arg2)
	OpAllocCheck      // check address Arg1 is inside a live allocation
	OpAllocCheckBase  // check Arg1 and Arg2 share one live allocation
	OpAllocExtend     // move allocation at Arg1 to [Arg2, Arg2+Arg3)
	OpAllocDestroy    // destroy allocation at Arg1
	OpAllocDestroyAll // destroy all allocations within [Arg1, Arg1+Arg2)

	// OpCounterInc increments the toy execution counter from the paper's §2
	// overview example. Arg1 carries the event class.
	OpCounterInc

	// Data-flow integrity operations (§4.3): every store announces itself
	// as the last writer of its address; checked loads verify the last
	// writer belongs to the load's statically computed set of legitimate
	// writers (Castro et al., OSDI '06).
	OpDFIDeclare // declare writer Arg2 as a member of set Arg1
	OpDFISet     // store at address Arg1 by writer Arg2
	OpDFICheck   // load at address Arg1 must have last writer in set Arg2

	// Session-control operations for the networked attestation plane
	// (internal/hqnet). They share the 48-byte AppendWrite frame so one
	// framing layer serves both planes, but they terminate at the connection
	// layer: the daemon never forwards them to the verifier's policy chain,
	// and a control op arriving through a local channel is just an unknown
	// op to every policy (ignored, like OpNop). IsSessionOp partitions the
	// space.

	OpHello        // client→daemon: admission request (Arg1 ver, Arg2 tenant, Arg3 nonce)
	OpResume       // client→daemon: resume session (Arg1 token, Arg2 tenant)
	OpWelcome      // daemon→client: grant (Arg1 token, Arg2 lease ns, Arg3 flags; Seq = acked)
	OpReject       // daemon→client: refusal (Arg1 reason code)
	OpSessionKey   // daemon→client: MAC key delivery (Arg1 K0, Arg2 K1)
	OpHeartbeat    // client→daemon: lease renewal (Arg1 ordinal)
	OpHeartbeatAck // daemon→client: renewal confirm (Seq = cumulative acked data seq)
	OpAck          // daemon→client: cumulative receive acknowledgement (Seq = acked)
	OpGateEnter    // client→daemon: run the syscall gate (Arg1 syscall no, Arg2 ordinal)
	OpGateResult   // daemon→client: gate verdict (Arg1 verdict, Arg2 reason, Arg3 ordinal)
	OpKillNotice   // daemon→client: the resident proc was killed (Arg1 reason code)
	OpGoodbye      // client→daemon: clean session close

	numOps // sentinel
)

var opNames = [...]string{
	OpNop:                    "nop",
	OpInit:                   "init",
	OpSyscall:                "syscall",
	OpPointerDefine:          "pointer-define",
	OpPointerCheck:           "pointer-check",
	OpPointerInvalidate:      "pointer-invalidate",
	OpPointerCheckInvalidate: "pointer-check-invalidate",
	OpPointerBlockCopy:       "pointer-block-copy",
	OpPointerBlockMove:       "pointer-block-move",
	OpPointerBlockInvalidate: "pointer-block-invalidate",
	OpAllocCreate:            "alloc-create",
	OpAllocCheck:             "alloc-check",
	OpAllocCheckBase:         "alloc-check-base",
	OpAllocExtend:            "alloc-extend",
	OpAllocDestroy:           "alloc-destroy",
	OpAllocDestroyAll:        "alloc-destroy-all",
	OpCounterInc:             "counter-inc",
	OpDFIDeclare:             "dfi-declare",
	OpDFISet:                 "dfi-set",
	OpDFICheck:               "dfi-check",
	OpHello:                  "hello",
	OpResume:                 "resume",
	OpWelcome:                "welcome",
	OpReject:                 "reject",
	OpSessionKey:             "session-key",
	OpHeartbeat:              "heartbeat",
	OpHeartbeatAck:           "heartbeat-ack",
	OpAck:                    "ack",
	OpGateEnter:              "gate-enter",
	OpGateResult:             "gate-result",
	OpKillNotice:             "kill-notice",
	OpGoodbye:                "goodbye",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint32(o))
}

// NumOps is the number of defined operation codes: every valid Op is below
// it. The verifier sizes its per-process op routing table with it.
const NumOps = numOps

// Valid reports whether o is a defined operation code.
func (o Op) Valid() bool { return o < numOps }

// IsSessionOp reports whether o belongs to the connection plane: a
// session-control frame that the hqnet daemon consumes (or emits) at the
// connection layer and never forwards into the verifier's policy chain.
func (o Op) IsSessionOp() bool { return o >= OpHello && o < numOps }

// MessageSize is the wire size of an encoded message in bytes: a 4-byte
// operation code, a 4-byte process identifier, three 8-byte arguments, an
// 8-byte sequence counter and an 8-byte authentication tag. The paper's FPGA
// message is 32 bytes (two arguments); we widen to three so block operations
// (src, dst, size) fit in a single message across every backend, and carry a
// MAC slot so the CCFI-style authenticated-channel mode needs no second wire
// format (see DESIGN.md, "Known deviations").
const MessageSize = 48

// Message is the fixed-size structure transmitted by AppendWrite (§3.1). PID
// identifies the sending process; on the FPGA backend it is populated from a
// kernel-managed register, which gives message authenticity. Seq is the
// per-message counter used to detect dropped messages. Mac is zero on
// unauthenticated channels; under the hmac policy it carries the SipHash tag
// computed by SealSender over the message body and sequence number.
type Message struct {
	Op               Op
	PID              int32
	Arg1, Arg2, Arg3 uint64
	Seq              uint64
	Mac              uint64
}

func (m Message) String() string {
	if m.Mac != 0 {
		return fmt.Sprintf("{%s pid=%d args=%#x,%#x,%#x seq=%d mac=%#x}",
			m.Op, m.PID, m.Arg1, m.Arg2, m.Arg3, m.Seq, m.Mac)
	}
	return fmt.Sprintf("{%s pid=%d args=%#x,%#x,%#x seq=%d}",
		m.Op, m.PID, m.Arg1, m.Arg2, m.Arg3, m.Seq)
}

// Encode serializes m into buf, which must be at least MessageSize bytes, and
// returns the number of bytes written. Little-endian, fixed layout.
func (m Message) Encode(buf []byte) int {
	_ = buf[MessageSize-1]
	putU32(buf[0:], uint32(m.Op))
	putU32(buf[4:], uint32(m.PID))
	putU64(buf[8:], m.Arg1)
	putU64(buf[16:], m.Arg2)
	putU64(buf[24:], m.Arg3)
	putU64(buf[32:], m.Seq)
	putU64(buf[macOffset:], m.Mac)
	return MessageSize
}

// macOffset is the byte offset of the Mac field in an encoded frame.
const macOffset = 40

// FrameSeq reads the Seq field of an encoded frame and nothing else.
func FrameSeq(frame []byte) uint64 { return getU64(frame[32:]) }

// DecodeMessage parses a message previously produced by Encode.
func DecodeMessage(buf []byte) (Message, error) {
	if len(buf) < MessageSize {
		return Message{}, fmt.Errorf("ipc: short message: %d bytes", len(buf))
	}
	m := frameMessage(buf)
	if !m.Op.Valid() {
		return Message{}, fmt.Errorf("ipc: invalid op code %d", uint32(m.Op))
	}
	return m, nil
}

// frameMessage reads the fields of an encoded frame, valid or not.
func frameMessage(buf []byte) Message {
	_ = buf[MessageSize-1]
	return Message{
		Op:   Op(getU32(buf[0:])),
		PID:  int32(getU32(buf[4:])),
		Arg1: getU64(buf[8:]),
		Arg2: getU64(buf[16:]),
		Arg3: getU64(buf[24:]),
		Seq:  getU64(buf[32:]),
		Mac:  getU64(buf[macOffset:]),
	}
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}
