package ipc

import (
	"herqules/internal/telemetry"
)

// EnableTelemetry wraps the channel's endpoints with counting shims that
// record send/recv/batch totals, the receive-side batch-size distribution,
// and the pending-message high-water mark. Backends with internal state the
// shim cannot observe (the fd framing layer's partial-frame carry) are
// instrumented directly. Call before the channel is used concurrently; the
// per-message overhead is one atomic add on send and an amortized handful of
// atomic adds per received burst.
func (c *Channel) EnableTelemetry(m *telemetry.Metrics) {
	if fr, ok := c.Receiver.(*fdReceiver); ok {
		fr.carries = m.Counter("ipc.partial_frame_carries")
		fr.frameErrs = m.Counter("ipc.frame_errors")
	}
	c.Sender = &instrumentedSender{
		s:     c.Sender,
		sends: m.Counter("ipc.sends"),
		errs:  m.Counter("ipc.send_errors"),
	}
	c.Receiver = &instrumentedReceiver{
		r:         c.Receiver,
		recvs:     m.Counter("ipc.recvs"),
		batches:   m.Counter("ipc.recv_batches"),
		batchSize: m.Histogram("ipc.recv_batch_size"),
		pending:   m.Peak("ipc.pending_peak"),
	}
}

// instrumentedSender counts sends and send errors around the wrapped sender.
type instrumentedSender struct {
	s     Sender
	sends *telemetry.Counter
	errs  *telemetry.Counter
}

func (s *instrumentedSender) Send(m Message) error {
	err := s.s.Send(m)
	if err != nil {
		s.errs.Inc()
		return err
	}
	s.sends.Inc()
	return nil
}

func (s *instrumentedSender) Close() error { return s.s.Close() }

// SetPID implements PIDRegister by forwarding to the wrapped sender, so
// wrapping a transport with a kernel-managed PID register (the FPGA AFU)
// does not hide the register from the kernel-side code that must program it.
// For backends without a register this is a no-op, which matches their
// unwrapped behaviour (the type assertion would simply have failed).
func (s *instrumentedSender) SetPID(pid int32) {
	if reg, ok := s.s.(PIDRegister); ok {
		reg.SetPID(pid)
	}
}

// instrumentedReceiver counts receives around the wrapped receiver.
type instrumentedReceiver struct {
	r         Receiver
	recvs     *telemetry.Counter
	batches   *telemetry.Counter
	batchSize *telemetry.Histogram
	pending   *telemetry.Peak
	// chanPeak is this channel's own pending high-water mark. The registry
	// peak above is shared by every channel on the registry; the local peak
	// is what per-PID attribution reports for the one process bound to this
	// channel.
	chanPeak telemetry.Peak
}

func (r *instrumentedReceiver) observePending() {
	if n, ok := PendingOf(r.r); ok && n > 0 {
		r.pending.Observe(uint64(n))
		r.chanPeak.Observe(uint64(n))
	}
}

// PendingPeak reports this channel's own sent-but-unread high-water mark,
// the per-process backpressure figure the supervisor attributes to the PID
// bound to the channel.
func (r *instrumentedReceiver) PendingPeak() uint64 { return r.chanPeak.Value() }

// RecvBatch implements Receiver over the wrapped receiver.
func (r *instrumentedReceiver) RecvBatch(buf []Message) (int, bool, error) {
	r.observePending()
	n, ok, err := r.r.RecvBatch(buf)
	if n > 0 {
		r.recvs.Add(uint64(n))
		r.batches.Inc()
		r.batchSize.Observe(uint64(n))
	}
	return n, ok, err
}

// Pending implements Pender when the backend can observe its queue depth,
// and reports zero otherwise.
func (r *instrumentedReceiver) Pending() int {
	n, _ := PendingOf(r.r)
	return n
}

// PeakPender is implemented by receivers that track their own pending
// high-water mark (the instrumented receiver); the supervisor uses it for
// per-PID backpressure attribution.
type PeakPender interface {
	// PendingPeak reports the highest observed sent-but-unread count.
	PendingPeak() uint64
}

var (
	_ Sender      = (*instrumentedSender)(nil)
	_ PIDRegister = (*instrumentedSender)(nil)
	_ Receiver    = (*instrumentedReceiver)(nil)
	_ Pender      = (*instrumentedReceiver)(nil)
	_ PeakPender  = (*instrumentedReceiver)(nil)
)
