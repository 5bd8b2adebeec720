// Package fpga models AppendWrite-FPGA (§2.3.1, §3.1.1): an Accelerator
// Functional Unit on a PCIe FPGA card that receives messages as
// word-granularity uncached MMIO register writes, reassembles them, stamps
// them with a kernel-managed PID register, numbers them with a per-message
// counter, and writes them into a pinned circular buffer in the verifier's
// memory.
//
// The security properties carried over from the hardware design:
//
//   - Authenticity: the PID field is populated by the AFU from a register
//     only the kernel can write (updated on context switch). A compromised
//     program cannot claim another process's identity.
//   - Append-only: the monitored program can only push new messages through
//     the MMIO registers; it has no access to the circular buffer, so sent
//     messages cannot be modified or erased.
//   - Drop detection: the AFU has no back-pressure, so a full buffer drops
//     messages; the consecutive counter lets the verifier detect the gap and
//     treat it as a fatal integrity violation.
package fpga

import (
	"fmt"
	"sync"

	"herqules/internal/ipc"
)

// SendNanos is the modelled per-message cost of AppendWrite-FPGA from
// Table 2: two posted MMIO write TLPs traversing the uncore and PCIe bus.
const SendNanos = 102

// DefaultSlots is the default circular-buffer capacity in messages. The
// paper sizes the buffer (1 GB) so drops never occur in practice; tests use
// small buffers to exercise the drop path.
const DefaultSlots = 1 << 16

// mmioRegs is the AFU's operation-specific register file (§3.1.1): staged
// argument registers plus a commit register. Messages are created with at
// most two MMIO writes: one optional staging write and one commit write that
// carries the opcode.
type mmioRegs struct {
	arg1, arg2, arg3 uint64
}

// Device is the AFU plus its host-side circular buffer.
type Device struct {
	mu sync.Mutex

	regs mmioRegs
	// pid is the kernel-managed PID register, updated on context switch.
	pid int32
	// counter is the AFU's per-message counter.
	counter uint64

	// Host-side circular buffer (pinned hugepage memory in the paper).
	buf    []ipc.Message
	head   uint64 // next write (AFU side)
	tail   uint64 // next read (verifier side)
	closed bool
	cond   *sync.Cond

	// dropped counts messages lost to buffer overrun.
	dropped uint64
}

// NewDevice creates an AFU with a circular buffer of the given capacity
// (DefaultSlots when <= 0).
func NewDevice(slots int) *Device {
	if slots <= 0 {
		slots = DefaultSlots
	}
	d := &Device{buf: make([]ipc.Message, slots)}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// SetPID models the kernel updating the AFU's PID register on a context
// switch. Only kernel code may call this; the monitored program has no MMIO
// path to it.
func (d *Device) SetPID(pid int32) {
	d.mu.Lock()
	d.pid = pid
	d.mu.Unlock()
}

// writeMMIO models the word-granularity uncached stores a send decomposes
// into. The final store (commit=true, carrying the opcode) triggers
// reassembly and the host write.
func (d *Device) writeMMIO(op ipc.Op, arg1, arg2, arg3 uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Staging write(s).
	d.regs.arg1, d.regs.arg2, d.regs.arg3 = arg1, arg2, arg3
	// Commit write: reassemble, stamp PID and counter, write to host.
	d.counter++
	m := ipc.Message{
		Op:   op,
		PID:  d.pid,
		Arg1: d.regs.arg1,
		Arg2: d.regs.arg2,
		Arg3: d.regs.arg3,
		Seq:  d.counter,
	}
	if d.head-d.tail >= uint64(len(d.buf)) {
		// No back-pressure mechanism: the message is dropped. The
		// counter was still consumed, so the verifier will observe a
		// gap (§3.1.1).
		d.dropped++
		return
	}
	d.buf[d.head%uint64(len(d.buf))] = m
	d.head++
	d.cond.Broadcast()
}

// Dropped reports how many messages were lost to buffer overrun.
func (d *Device) Dropped() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dropped
}

// sender is the monitored-program endpoint: its only capability is pushing
// MMIO writes into the AFU.
type sender struct {
	dev *Device
}

// SetPID exposes the kernel-managed PID register through the sender handle
// so the framework (acting as the kernel on a context switch) can program
// it. Guest code never holds this handle.
func (s *sender) SetPID(pid int32) { s.dev.SetPID(pid) }

// Send implements ipc.Sender. The PID and Seq fields of m are ignored: the
// AFU assigns both (a compromised sender cannot forge them).
func (s *sender) Send(m ipc.Message) error {
	s.dev.mu.Lock()
	closed := s.dev.closed
	s.dev.mu.Unlock()
	if closed {
		return ipc.ErrClosed
	}
	s.dev.writeMMIO(m.Op, m.Arg1, m.Arg2, m.Arg3)
	return nil
}

// Close implements ipc.Sender.
func (s *sender) Close() error {
	s.dev.mu.Lock()
	s.dev.closed = true
	s.dev.cond.Broadcast()
	s.dev.mu.Unlock()
	return nil
}

// receiver is the verifier endpoint: it reads the circular buffer and
// verifies that counters are consecutive.
type receiver struct {
	dev     *Device
	lastSeq uint64
}

// RecvBatch implements ipc.Receiver: the whole pending window of the
// circular buffer is copied out under one lock round, then counter-verified
// outside the lock, so the AFU is never stalled by per-message verifier work.
func (r *receiver) RecvBatch(out []ipc.Message) (int, bool, error) {
	if len(out) == 0 {
		return 0, true, nil
	}
	d := r.dev
	d.mu.Lock()
	for d.tail == d.head && !d.closed {
		d.cond.Wait()
	}
	if d.tail == d.head {
		d.mu.Unlock()
		return 0, false, nil
	}
	n := int(d.head - d.tail)
	if n > len(out) {
		n = len(out)
	}
	for i := 0; i < n; i++ {
		out[i] = d.buf[(d.tail+uint64(i))%uint64(len(d.buf))]
	}
	d.tail += uint64(n)
	d.cond.Broadcast()
	d.mu.Unlock()
	for i := 0; i < n; i++ {
		if out[i].Seq != r.lastSeq+1 {
			// A non-consecutive counter means the AFU dropped messages; the
			// monitored program must be terminated (§3.1.1). The PID field
			// is AFU-stamped (kernel-managed register), so the error can be
			// attributed to the responsible process.
			return i, false, &ipc.ProcessError{PID: out[i].PID, Err: ipc.ErrIntegrity}
		}
		r.lastSeq = out[i].Seq
	}
	return n, true, nil
}

var (
	_ ipc.PIDRegister = (*sender)(nil)
	_ ipc.Receiver    = (*receiver)(nil)
)

// New creates an AppendWrite-FPGA channel with the given buffer capacity in
// messages (DefaultSlots when <= 0). The returned Device is exposed for the
// kernel to manage the PID register.
func New(slots int) (*ipc.Channel, *Device) {
	d := NewDevice(slots)
	ch := &ipc.Channel{
		Sender:   &sender{dev: d},
		Receiver: &receiver{dev: d},
		Props: ipc.Properties{
			Name:            "AppendWrite-FPGA",
			AppendOnly:      true,
			AsyncValidation: true,
			PrimaryCost:     "MMIO write",
			SendNanos:       SendNanos,
		},
	}
	return ch, d
}

// NewChannel is the validating constructor used by the channel factories:
// unlike New, which silently substitutes DefaultSlots, it rejects a negative
// buffer capacity — a caller bug the silent default used to swallow — so the
// error can propagate to the API surface. The Device stays reachable through
// the sender's ipc.PIDRegister.
func NewChannel(slots int) (*ipc.Channel, error) {
	if slots < 0 {
		return nil, fmt.Errorf("fpga: negative circular-buffer capacity %d", slots)
	}
	ch, _ := New(slots)
	return ch, nil
}
