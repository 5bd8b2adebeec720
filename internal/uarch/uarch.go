// Package uarch models AppendWrite-µarch (§2.3.2, §3.1.2): an ISA extension
// with two privileged per-core registers — AppendAddr and MaxAppendAddr —
// and appendable memory regions (AMRs) that span ordinary memory pages but
// reject all unprivileged stores except the AppendWrite instruction.
//
// Two variants are provided, matching the paper's measurement points:
//
//   - Core: hardware semantics over the paged memory of package mem. AMR
//     pages carry the Append permission, so the enforcement the paper adds
//     to the MMU is real within the simulation — guest stores to the AMR
//     fault, while the AppendWrite instruction succeeds and auto-increments
//     AppendAddr. Used by the -SIM configurations.
//   - Model: the software-only approximation the paper deploys as -MODEL
//     (usable on stock hardware, lower-bound performance): each send
//     fetches, checks and increments an AppendAddr variable in shared
//     memory and waits for the verifier when the buffer is full. It lacks
//     hardware enforcement of the append-only property, exactly as the
//     paper cautions.
package uarch

import (
	"fmt"
	"sync"

	"herqules/internal/ipc"
	"herqules/internal/mem"
)

// Modelled per-message send costs (Table 2 and §5.3.1).
const (
	// SendNanosHW is the hardware AppendWrite cost: one store micro-op
	// without effective-address computation (< 2 ns).
	SendNanosHW = 1.5
	// SendNanosModel is the software model's cost: a fetch-check-increment
	// on a shared AppendAddr plus the message store.
	SendNanosModel = 8
)

// Core holds the two privileged per-core registers of §2.3.2. The design
// keeps AMRs core-local (no cross-core writers) to avoid cache-coherency
// overhead; one Core therefore serves exactly one writer.
type Core struct {
	// AppendAddr is the virtual address the next AppendWrite stores to.
	AppendAddr uint64
	// MaxAppendAddr is one past the end of the AMR.
	MaxAppendAddr uint64
}

// FaultHandler is invoked (in the kernel) when AppendWrite would exceed
// MaxAppendAddr. It must either make room — reset AppendAddr after the AMR
// has been fully read, or allocate a new buffer — and return true, or return
// false to deliver the fault to the process.
type FaultHandler func(c *Core) bool

// Device is one AMR plus the core registers of its writer and the shared
// read cursor of its reader.
type Device struct {
	mu   sync.Mutex
	cond *sync.Cond

	memory *mem.Memory
	base   uint64 // AMR base address
	size   uint64 // AMR size in bytes
	core   Core

	readAddr uint64 // verifier's read cursor
	closed   bool
	seq      uint64

	onFault FaultHandler
}

// NewDevice maps an AMR of the given size at base inside memory and
// initializes the writer core's registers. The pages are mapped with the
// Append permission: ordinary guest stores to them fault in the MMU.
func NewDevice(memory *mem.Memory, base, size uint64) (*Device, error) {
	if size%ipc.MessageSize != 0 {
		return nil, fmt.Errorf("uarch: AMR size %d not a multiple of message size", size)
	}
	if err := memory.Map(base, size, mem.Read|mem.Append); err != nil {
		return nil, fmt.Errorf("uarch: mapping AMR: %w", err)
	}
	d := &Device{
		memory:   memory,
		base:     base,
		size:     size,
		core:     Core{AppendAddr: base, MaxAppendAddr: base + size},
		readAddr: base,
	}
	d.cond = sync.NewCond(&d.mu)
	// Default kernel fault handler: reset the registers once the AMR has
	// been fully read (§2.3.2), waiting for the reader to drain.
	d.onFault = func(c *Core) bool {
		for d.readAddr < c.AppendAddr && !d.closed {
			d.cond.Wait()
		}
		if d.closed {
			return false
		}
		c.AppendAddr = d.base
		d.readAddr = d.base
		return true
	}
	return d, nil
}

// Append executes one AppendWrite instruction: copy the fixed-size message
// at the (virtual) source to the AMR at AppendAddr and auto-increment the
// register; fault to the kernel when the write would exceed MaxAppendAddr.
// The store path bypasses the ordinary-write MMU rejection — exactly the
// bypass the AppendWrite store micro-op is granted in hardware.
func (d *Device) Append(m ipc.Message) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ipc.ErrClosed
	}
	if d.core.AppendAddr+ipc.MessageSize > d.core.MaxAppendAddr {
		if !d.onFault(&d.core) {
			return ipc.ErrFull
		}
	}
	d.seq++
	m.Seq = d.seq
	var buf [ipc.MessageSize]byte
	m.Encode(buf[:])
	if err := d.memory.AppendWrite(d.core.AppendAddr, buf[:]); err != nil {
		return err
	}
	d.core.AppendAddr += ipc.MessageSize
	d.cond.Broadcast()
	return nil
}

// RecvBatch reads up to len(out) messages in one lock round, blocking until
// at least one is appended or the device is closed and drained. Draining the
// AMR in bursts is what unblocks a writer waiting in the full-AMR fault
// handler promptly.
func (d *Device) RecvBatch(out []ipc.Message) (int, bool, error) {
	if len(out) == 0 {
		return 0, true, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.readAddr == d.core.AppendAddr && !d.closed {
		d.cond.Wait()
	}
	if d.readAddr == d.core.AppendAddr {
		return 0, false, nil
	}
	return d.recvBatchLocked(out)
}

// TryRecvBatch reads up to len(out) messages without blocking.
func (d *Device) TryRecvBatch(out []ipc.Message) (int, bool, error) {
	if len(out) == 0 {
		return 0, true, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.recvBatchLocked(out)
}

func (d *Device) recvBatchLocked(out []ipc.Message) (int, bool, error) {
	n := 0
	var buf [ipc.MessageSize]byte
	for n < len(out) && d.readAddr != d.core.AppendAddr {
		if err := d.memory.Read(d.readAddr, buf[:]); err != nil {
			return n, false, err
		}
		m, err := ipc.DecodeMessage(buf[:])
		if err != nil {
			return n, false, fmt.Errorf("%w: %v", ipc.ErrIntegrity, err)
		}
		d.readAddr += ipc.MessageSize
		d.cond.Broadcast() // AMR space freed: wake a writer in the fault handler
		out[n] = m
		n++
	}
	return n, n > 0, nil
}

// Pending reports the number of appended-but-unread messages.
func (d *Device) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int((d.core.AppendAddr - d.readAddr) / ipc.MessageSize)
}

// Close marks the device closed.
func (d *Device) Close() error {
	d.mu.Lock()
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	return nil
}

// Base returns the AMR base address (tests probe MMU enforcement there).
func (d *Device) Base() uint64 { return d.base }

// deviceSender adapts Device to ipc.Sender.
type deviceSender struct{ d *Device }

func (s deviceSender) Send(m ipc.Message) error { return s.d.Append(m) }
func (s deviceSender) Close() error             { return s.d.Close() }

var (
	_ ipc.Receiver = (*Device)(nil)
	_ ipc.Pender   = (*Device)(nil)
)

// New creates an AppendWrite-µarch channel with hardware semantics: an AMR
// of the given size mapped at base within memory. Used by the simulator
// configurations (-SIM).
func New(memory *mem.Memory, base, size uint64) (*ipc.Channel, *Device, error) {
	d, err := NewDevice(memory, base, size)
	if err != nil {
		return nil, nil, err
	}
	ch := &ipc.Channel{
		Sender:   deviceSender{d},
		Receiver: d,
		Props: ipc.Properties{
			Name:            "AppendWrite-µarch",
			AppendOnly:      true,
			AsyncValidation: true,
			PrimaryCost:     "memory write",
			SendNanos:       SendNanosHW,
		},
	}
	return ch, d, nil
}

// NewModel creates the software-only model of AppendWrite-µarch (the
// paper's -MODEL configurations, §5.3.1): a shared-memory ring whose
// AppendAddr is maintained in software. It provides a lower-bound
// performance estimate and must not be deployed for security — it lacks
// hardware enforcement of the append-only property, which the advertised
// Properties reflect.
func NewModel(slots int) *ipc.Channel {
	ch := ipc.NewSharedRing(slots)
	ch.Props = ipc.Properties{
		Name:            "AppendWrite-µarch (software model)",
		AppendOnly:      false, // no hardware enforcement in the model
		AsyncValidation: true,
		PrimaryCost:     "memory write",
		SendNanos:       SendNanosModel,
	}
	return ch
}
