package uarch

import (
	"testing"

	"herqules/internal/ipc"
	"herqules/internal/mem"
)

const amrBase = 0x7f0000000000

func newTestChannel(t *testing.T, slots int) (*ipc.Channel, *Device, *mem.Memory) {
	t.Helper()
	m := mem.New()
	ch, dev, err := New(m, amrBase, uint64(slots)*ipc.MessageSize)
	if err != nil {
		t.Fatal(err)
	}
	return ch, dev, m
}

func TestAppendAndReceive(t *testing.T) {
	ch, _, _ := newTestChannel(t, 128)
	for i := 0; i < 100; i++ {
		if err := ch.Sender.Send(ipc.Message{Op: ipc.OpPointerDefine, Arg1: uint64(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	ch.Close()
	for i := 0; i < 100; i++ {
		m, ok, err := ipc.RecvOne(ch.Receiver)
		if !ok || err != nil {
			t.Fatalf("Recv %d: ok=%t err=%v", i, ok, err)
		}
		if m.Arg1 != uint64(i) {
			t.Fatalf("out of order at %d: %v", i, m)
		}
	}
}

func TestMMURejectsOrdinaryWritesToAMR(t *testing.T) {
	// The defining property of §2.3.2: a compromised program writing
	// directly to the AMR (to erase evidence) faults in the MMU.
	ch, dev, m := newTestChannel(t, 16)
	if err := ch.Sender.Send(ipc.Message{Op: ipc.OpPointerCheck, Arg1: 0xbad}); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(dev.base, make([]byte, 8)); err == nil {
		t.Fatal("ordinary store to AMR succeeded: append-only violated")
	}
	// The evidence is still there.
	msg, ok, err := ipc.RecvOne(ch.Receiver)
	if !ok || err != nil || msg.Arg1 != 0xbad {
		t.Errorf("evidence lost: %v %t %v", msg, ok, err)
	}
	// Reading the AMR is allowed (the verifier maps it read-only).
	if err := m.Read(dev.base, make([]byte, 8)); err != nil {
		t.Errorf("read of AMR failed: %v", err)
	}
}

func TestFaultHandlerResetsAfterDrain(t *testing.T) {
	// Writer fills the AMR; the kernel fault handler must wait for the
	// reader to drain, then reset AppendAddr (§2.3.2) so writing continues.
	ch, _, _ := newTestChannel(t, 8)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 24; i++ { // 3x the AMR capacity
			if err := ch.Sender.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: uint64(i)}); err != nil {
				done <- err
				return
			}
		}
		done <- ch.Sender.Close()
	}()
	for i := 0; i < 24; i++ {
		m, ok, err := ipc.RecvOne(ch.Receiver)
		if !ok || err != nil {
			t.Fatalf("Recv %d: ok=%t err=%v", i, ok, err)
		}
		if m.Arg1 != uint64(i) {
			t.Fatalf("order lost across wrap at %d: %v", i, m)
		}
		if m.Seq != uint64(i+1) {
			t.Fatalf("seq lost across wrap at %d: %v", i, m)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestBadAMRSizeRejected(t *testing.T) {
	m := mem.New()
	if _, _, err := New(m, amrBase, ipc.MessageSize+1); err == nil {
		t.Error("non-multiple AMR size accepted")
	}
}

func TestOverlappingAMRRejected(t *testing.T) {
	m := mem.New()
	if _, _, err := New(m, amrBase, 16*ipc.MessageSize); err != nil {
		t.Fatal(err)
	}
	if _, _, err := New(m, amrBase, 16*ipc.MessageSize); err == nil {
		t.Error("overlapping AMR accepted")
	}
}

func TestSendAfterClose(t *testing.T) {
	ch, _, _ := newTestChannel(t, 8)
	ch.Close()
	if err := ch.Sender.Send(ipc.Message{}); err == nil {
		t.Error("Send after Close succeeded")
	}
}

func TestHardwareChannelSuitable(t *testing.T) {
	ch, _, _ := newTestChannel(t, 8)
	if !ch.Props.AppendOnly || !ch.Props.AsyncValidation {
		t.Error("AppendWrite-µarch must satisfy both requirements")
	}
	if ch.Props.SendNanos >= 2 {
		t.Errorf("hardware send cost = %vns, want < 2ns per Table 2", ch.Props.SendNanos)
	}
}

func TestModelChannel(t *testing.T) {
	ch := NewModel(64)
	if ch.Props.AppendOnly {
		t.Error("software model must not advertise hardware append-only enforcement")
	}
	if !ch.Props.AsyncValidation {
		t.Error("model loses async property")
	}
	if ch.Props.SendNanos != SendNanosModel {
		t.Errorf("model cost = %v", ch.Props.SendNanos)
	}
	// It still functions as a channel.
	ch.Sender.Send(ipc.Message{Op: ipc.OpInit})
	ch.Close()
	if _, ok, err := ipc.RecvOne(ch.Receiver); !ok || err != nil {
		t.Error("model channel lost a message")
	}
}

func TestCostOrderingAcrossAppendWriteVariants(t *testing.T) {
	// Table 2: µarch hardware < µarch model < FPGA.
	if !(SendNanosHW < SendNanosModel && SendNanosModel < 102) {
		t.Error("AppendWrite cost ordering violated")
	}
}

func TestDeviceRecvBatch(t *testing.T) {
	m := mem.New()
	ch, _, err := New(m, 0x7000_0000, 64*ipc.MessageSize)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := ch.Sender.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: uint64(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	ch.Close()
	buf := make([]ipc.Message, 16)
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
			if buf[i].Arg1 != uint64(got+i) {
				t.Fatalf("out of order at %d: %v", got+i, buf[i])
			}
		}
		got += k
	}
	if got != n {
		t.Fatalf("drained %d, want %d", got, n)
	}
}

func TestMultiCoreAMRsAreIsolated(t *testing.T) {
	// Each writer core gets a unique AMR (§2.3.2): two devices mapped side
	// by side in one memory. A writer's traffic must never appear under
	// another core's region, and the MMU must reject ordinary stores to
	// any of them.
	m := mem.New()
	const size = 8 * ipc.MessageSize
	var devs [2]*Device
	for i := range devs {
		d, err := NewDevice(m, 0x7f10_0000_0000+uint64(i)*(size+mem.PageSize), size)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
	}
	if err := devs[0].Append(ipc.Message{Op: ipc.OpInit, Arg1: 7}); err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		if err := m.Write(d.base, []byte{1}); err == nil {
			t.Fatal("ordinary store to a per-core AMR succeeded")
		}
	}
	var got [1]ipc.Message
	if n, _, err := devs[0].RecvBatch(got[:]); n != 1 || err != nil || got[0].Arg1 != 7 {
		t.Fatalf("core 0 AMR: %v n=%d %v", got[0], n, err)
	}
	devs[1].Close()
	if n, ok, _ := devs[1].RecvBatch(got[:]); n != 0 || ok {
		t.Fatal("message leaked into another core's AMR")
	}
}
