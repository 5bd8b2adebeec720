package ipc

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Common channel errors.
var (
	// ErrClosed is returned by Send after the channel has been closed.
	ErrClosed = errors.New("ipc: channel closed")
	// ErrFull is returned by non-blocking backends when the buffer is full
	// and the backend has no back-pressure mechanism.
	ErrFull = errors.New("ipc: channel full")
	// ErrIntegrity is reported when the receiver detects that message
	// integrity was violated (a dropped, reordered, or overwritten
	// message). Under HerQules this is a fatal policy violation: the
	// monitored program must be terminated (§3.1.1).
	ErrIntegrity = errors.New("ipc: message integrity violated")
)

// jitterState seeds Jitter's lock-free splitmix64 stream. A shared atomic
// counter decorrelates concurrent callers (each Add claims a distinct stream
// position) without consulting a global RNG.
var jitterState atomic.Uint64

// Jitter draws a sleep uniformly from [1ns, ceil]: the full-jitter draw the
// hqnet client's reconnect ladder (hqnet.resumeBackoff) sleeps on, so a rack
// of clients severed together does not re-dial in lockstep. That ladder is
// its only caller: a channel's Send or RecvBatch error is terminal and is
// never retried.
func Jitter(ceil time.Duration) time.Duration {
	x := jitterState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return 1 + time.Duration(x%uint64(ceil))
}

// Sender is the monitored-program side of an IPC channel. Send transmits one
// fixed-size message; implementations differ in cost (system call, memory
// write, MMIO write) and in whether previously sent messages can later be
// altered by the sender.
type Sender interface {
	// Send appends one message. It may block when the channel applies
	// back-pressure, or return ErrFull when it cannot.
	Send(m Message) error
	// Close releases sender-side resources. Subsequent Sends fail.
	Close() error
}

// Receiver is the verifier side of an IPC channel. It has one verb: the bulk
// read of the append-only buffer (§3.1.1, §3.4). Every backend hands the
// verifier a whole burst of pending messages per call, amortizing
// per-message costs (atomics, locks, system calls) across the burst.
type Receiver interface {
	// RecvBatch fills buf with up to len(buf) pending messages. It blocks
	// until at least one message is available or the channel is closed and
	// drained (n == 0, ok == false). When err is non-nil the first n
	// messages of buf are still valid: they were received before the
	// integrity failure — which the verifier must treat as a policy
	// violation — and must be processed so per-process state is current
	// when the verifier acts on the error. n == 0 with ok == true is legal
	// (a burst that held nothing for the verifier); the caller calls again.
	RecvBatch(buf []Message) (n int, ok bool, err error)
}

// RecvOne receives a single message from r with a one-slot RecvBatch, for
// tests and micro-benchmarks that step a channel message by message. ok is
// false once the channel is closed and drained, or when err is non-nil.
func RecvOne(r Receiver) (m Message, ok bool, err error) {
	var one [1]Message
	for {
		n, open, err := r.RecvBatch(one[:])
		if n == 1 || !open || err != nil {
			return one[0], n == 1, err
		}
	}
}

// RecvBatchFrom is r.RecvBatch(buf). It survives only as a shim for
// bench/ledger.go, which calls it and is frozen against edits; new code
// calls RecvBatch directly.
func RecvBatchFrom(r Receiver, buf []Message) (int, bool, error) { return r.RecvBatch(buf) }

// PIDRegister is implemented by senders whose transport carries a
// kernel-managed process-identity register (the FPGA AFU's PID register,
// §3.1.1): the kernel programs it on every context switch, and the hardware
// stamps each message with it, which is what makes the PID field authentic.
// The framework (the supervisor) plays the kernel's role and calls
// SetPID once when it binds a channel to a freshly registered process.
type PIDRegister interface {
	// SetPID programs the transport's process-identity register. Only
	// kernel-side code may call it; the monitored program has no path to it.
	SetPID(pid int32)
}

// Pender is implemented by receivers that can report how many messages are
// sent but not yet received, making backpressure observable uniformly across
// backends.
type Pender interface {
	// Pending reports the number of sent-but-unread messages.
	Pending() int
}

// PendingOf reports r's queue depth when r implements Pender; ok is false
// when the backend cannot observe it.
func PendingOf(r interface{}) (n int, ok bool) {
	if p, okP := r.(Pender); okP {
		return p.Pending(), true
	}
	return 0, false
}

// ProcessError attributes a receive-side integrity error to the monitored
// process that caused it. Backends that authenticate the PID field (the FPGA
// AFU's kernel-managed PID register, §3.1.1) wrap ErrIntegrity in a
// ProcessError; backends that cannot attribute the failure — a corrupted
// byte stream may carry a stale PID — return the bare error, and the
// verifier then terminates no one.
type ProcessError struct {
	// PID is the process the receiver holds responsible.
	PID int32
	// Err is the underlying error (typically ErrIntegrity).
	Err error
}

func (e *ProcessError) Error() string {
	return fmt.Sprintf("pid %d: %v", e.PID, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/errors.As.
func (e *ProcessError) Unwrap() error { return e.Err }

// Properties describes the security and cost characteristics of an IPC
// primitive, mirroring the columns of the paper's Table 2.
type Properties struct {
	// Name is the primitive's display name (Table 2 row label).
	Name string
	// AppendOnly reports whether the sender is prevented from modifying
	// or erasing messages after they are sent. Required for HerQules.
	AppendOnly bool
	// AsyncValidation reports whether sends complete without waiting for
	// the receiver (no synchronous privilege transition on the critical
	// path). Required for HerQules.
	AsyncValidation bool
	// PrimaryCost names the dominant per-send cost ("system call",
	// "memory write", "MMIO write").
	PrimaryCost string
	// SendNanos is the modelled per-message send latency in nanoseconds,
	// used by the deterministic performance experiments. The paper's
	// measured values (Table 2) are the defaults.
	SendNanos float64
}

// Suitable reports whether the primitive satisfies both HerQules
// requirements: message integrity (append-only) and asynchronous validation.
func (p Properties) Suitable() bool { return p.AppendOnly && p.AsyncValidation }

func (p Properties) String() string {
	return fmt.Sprintf("%s{append-only=%t async=%t cost=%s %.1fns}",
		p.Name, p.AppendOnly, p.AsyncValidation, p.PrimaryCost, p.SendNanos)
}

// Channel bundles both endpoints of an IPC primitive together with its
// properties. Concrete constructors (NewSharedRing, NewMessageQueue, ...)
// return Channels wired back-to-back; the monitored program holds the Sender
// and the verifier holds the Receiver.
type Channel struct {
	Sender   Sender
	Receiver Receiver
	Props    Properties
}

// Close closes the sender side (which eventually drains the receiver).
func (c *Channel) Close() error { return c.Sender.Close() }

// Kind enumerates the IPC primitives available to the framework, matching
// the suffixes used in the paper's evaluation (-MQ, -FPGA, -MODEL, -SIM).
type Kind int

const (
	// KindSharedRing is a raw shared-memory ring: fastest software
	// primitive, but not append-only (a compromised writer can rewrite
	// unread slots).
	KindSharedRing Kind = iota
	// KindMessageQueue is a POSIX-style kernel message queue: append-only
	// but every send is a system call.
	KindMessageQueue
	// KindPipe is a named pipe.
	KindPipe
	// KindSocket is a local (Unix-domain-style) socket.
	KindSocket
	// KindLWC models light-weight contexts: a disjoint-address-space
	// switch to the verifier and back on every send (2010 ns each way,
	// per Litton et al. as cited in Table 2).
	KindLWC
	// KindFPGA is AppendWrite-FPGA (package fpga).
	KindFPGA
	// KindUArchModel is the software-only model of AppendWrite-µarch
	// (the paper's -MODEL configurations).
	KindUArchModel
	// KindUArchSim is AppendWrite-µarch under the cycle simulator (the
	// paper's -SIM configurations).
	KindUArchSim
)

var kindNames = [...]string{
	KindSharedRing:   "shm",
	KindMessageQueue: "mq",
	KindPipe:         "pipe",
	KindSocket:       "socket",
	KindLWC:          "lwc",
	KindFPGA:         "fpga",
	KindUArchModel:   "model",
	KindUArchSim:     "sim",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}
