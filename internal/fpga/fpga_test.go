package fpga

import (
	"errors"
	"testing"

	"herqules/internal/ipc"
)

func TestDeliveryAndOrdering(t *testing.T) {
	ch, dev := New(1024)
	dev.SetPID(7)
	for i := 0; i < 100; i++ {
		if err := ch.Sender.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: uint64(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	ch.Close()
	for i := 0; i < 100; i++ {
		m, ok, err := ipc.RecvOne(ch.Receiver)
		if !ok || err != nil {
			t.Fatalf("Recv %d: ok=%t err=%v", i, ok, err)
		}
		if m.Arg1 != uint64(i) || m.Seq != uint64(i+1) {
			t.Fatalf("message %d out of order: %v", i, m)
		}
	}
	if _, ok, _ := ipc.RecvOne(ch.Receiver); ok {
		t.Error("message after drain")
	}
}

func TestPIDStampedByKernelRegister(t *testing.T) {
	ch, dev := New(16)
	dev.SetPID(42)
	// A compromised sender forges PID 1: the AFU must override it with the
	// kernel-managed register (message authenticity, §3.1.1).
	ch.Sender.Send(ipc.Message{Op: ipc.OpInit, PID: 1})
	dev.SetPID(43) // context switch
	ch.Sender.Send(ipc.Message{Op: ipc.OpInit, PID: 1})
	ch.Close()
	m1, _, _ := ipc.RecvOne(ch.Receiver)
	m2, _, _ := ipc.RecvOne(ch.Receiver)
	if m1.PID != 42 || m2.PID != 43 {
		t.Errorf("PIDs = %d, %d; want kernel-managed 42, 43", m1.PID, m2.PID)
	}
}

func TestSeqForgeryIgnored(t *testing.T) {
	ch, _ := New(16)
	ch.Sender.Send(ipc.Message{Op: ipc.OpInit, Seq: 999})
	ch.Close()
	m, _, _ := ipc.RecvOne(ch.Receiver)
	if m.Seq != 1 {
		t.Errorf("Seq = %d, want AFU-assigned 1", m.Seq)
	}
}

func TestDroppedMessagesDetected(t *testing.T) {
	// Tiny buffer, no reader: overruns are dropped and the counter gap is
	// a fatal integrity error at the receiver.
	ch, dev := New(8)
	for i := 0; i < 12; i++ {
		if err := ch.Sender.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: uint64(i)}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if dev.Dropped() != 4 {
		t.Fatalf("Dropped = %d, want 4", dev.Dropped())
	}
	ch.Close()
	// First 8 messages are intact...
	for i := 0; i < 8; i++ {
		if _, ok, err := ipc.RecvOne(ch.Receiver); !ok || err != nil {
			t.Fatalf("Recv %d: ok=%t err=%v", i, ok, err)
		}
	}
	// ...then nothing: but if the sender continues after a drop, the
	// next received message exposes the gap.
	ch2, dev2 := New(4)
	for i := 0; i < 5; i++ {
		ch2.Sender.Send(ipc.Message{Op: ipc.OpCounterInc})
	}
	// Drain 4, then send one more (seq 6; seq 5 was dropped).
	for i := 0; i < 4; i++ {
		if _, ok, err := ipc.RecvOne(ch2.Receiver); !ok || err != nil {
			t.Fatal(err)
		}
	}
	ch2.Sender.Send(ipc.Message{Op: ipc.OpCounterInc})
	_, _, err := ipc.RecvOne(ch2.Receiver)
	if !errors.Is(err, ipc.ErrIntegrity) {
		t.Errorf("counter gap: err=%v, want ErrIntegrity", err)
	}
	_ = dev2
}

func TestSendAfterCloseFails(t *testing.T) {
	ch, _ := New(8)
	ch.Close()
	if err := ch.Sender.Send(ipc.Message{}); err == nil {
		t.Error("Send after Close succeeded")
	}
}

func TestPropertiesSuitable(t *testing.T) {
	ch, _ := New(8)
	if !ch.Props.Suitable() {
		t.Error("AppendWrite-FPGA must satisfy both HerQules requirements")
	}
	if ch.Props.SendNanos != SendNanos {
		t.Errorf("SendNanos = %v", ch.Props.SendNanos)
	}
}

func TestConcurrentProducerConsumer(t *testing.T) {
	ch, dev := New(64)
	dev.SetPID(5)
	const n = 10000
	errs := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := ch.Sender.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: uint64(i)}); err != nil {
				errs <- err
				return
			}
		}
		errs <- ch.Sender.Close()
	}()
	count := 0
	for {
		m, ok, err := ipc.RecvOne(ch.Receiver)
		if err != nil {
			// The AFU drops on overrun instead of blocking, so counter
			// gaps are expected whenever the producer outruns this loop.
			// The errored Recv still consumed one buffered message; keep
			// draining so the accounting below closes.
			if dev.Dropped() == 0 {
				t.Fatalf("integrity error without drops: %v", err)
			}
			count++
			continue
		}
		if !ok {
			break
		}
		_ = m
		count++
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	// Conservation: every sent message was either dropped by the AFU at
	// overrun or consumed by a Recv (verified or gap-flagged) above.
	if count+int(dev.Dropped()) != n {
		t.Errorf("received %d + dropped %d != sent %d", count, dev.Dropped(), n)
	}
}

func TestRecvBatchDrainsBuffer(t *testing.T) {
	ch, dev := New(1024)
	dev.SetPID(9)
	const n = 100
	for i := 0; i < n; i++ {
		if err := ch.Sender.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: uint64(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	ch.Close()
	buf := make([]ipc.Message, 33)
	got := 0
	for {
		k, ok, err := ch.Receiver.RecvBatch(buf)
		if err != nil {
			t.Fatalf("RecvBatch: %v", err)
		}
		if !ok {
			break
		}
		for i := 0; i < k; i++ {
			if buf[i].Arg1 != uint64(got+i) || buf[i].PID != 9 {
				t.Fatalf("message %d: %v", got+i, buf[i])
			}
		}
		got += k
	}
	if got != n {
		t.Fatalf("drained %d messages, want %d", got, n)
	}
}

func TestRecvBatchAttributesDropToProcess(t *testing.T) {
	// Overrun a tiny buffer so the counter gap surfaces mid-batch: the
	// messages before the gap are delivered, and the error names the PID
	// the AFU stamped (kernel-managed register, so trustworthy).
	ch, _ := New(4)
	if reg, ok := ch.Sender.(interface{ SetPID(int32) }); ok {
		reg.SetPID(42)
	}
	for i := 0; i < 5; i++ { // fifth message dropped (seq 5 consumed)
		ch.Sender.Send(ipc.Message{Op: ipc.OpCounterInc})
	}
	buf := make([]ipc.Message, 4)
	k, _, err := ch.Receiver.RecvBatch(buf)
	if k != 4 || err != nil {
		t.Fatalf("pre-gap burst: k=%d err=%v", k, err)
	}
	ch.Sender.Send(ipc.Message{Op: ipc.OpCounterInc}) // seq 6 exposes the gap
	k, _, err = ch.Receiver.RecvBatch(buf)
	if k != 0 {
		t.Errorf("post-gap burst delivered %d messages", k)
	}
	if !errors.Is(err, ipc.ErrIntegrity) {
		t.Fatalf("err=%v, want ErrIntegrity", err)
	}
	var pe *ipc.ProcessError
	if !errors.As(err, &pe) || pe.PID != 42 {
		t.Errorf("drop not attributed to pid 42: %v", err)
	}
}

func TestReceiverPending(t *testing.T) {
	ch, _ := New(64)
	for i := 0; i < 7; i++ {
		ch.Sender.Send(ipc.Message{Op: ipc.OpCounterInc})
	}
	if p, ok := ipc.PendingOf(ch.Receiver); !ok || p != 7 {
		t.Errorf("Pending = %d ok=%t, want 7", p, ok)
	}
}

func TestNewChannelValidatesCapacity(t *testing.T) {
	if _, err := NewChannel(-1); err == nil {
		t.Fatal("negative capacity accepted")
	}
	ch, err := NewChannel(0) // 0 selects DefaultSlots, like New
	if err != nil || ch == nil {
		t.Fatalf("NewChannel(0) = %v, %v", ch, err)
	}
	if _, ok := ch.Sender.(ipc.PIDRegister); !ok {
		t.Error("FPGA sender lost its kernel-managed PID register")
	}
}
