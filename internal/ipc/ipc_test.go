package ipc

import (
	"os"
	"sync/atomic"
	"testing"
	"testing/quick"

	"herqules/internal/telemetry"
)

func TestMessageEncodeDecodeRoundTrip(t *testing.T) {
	m := Message{Op: OpPointerDefine, PID: 42, Arg1: 0xdeadbeef, Arg2: 0xcafebabe12345678, Arg3: 7, Seq: 99}
	var buf [MessageSize]byte
	n := m.Encode(buf[:])
	if n != MessageSize {
		t.Fatalf("Encode wrote %d bytes, want %d", n, MessageSize)
	}
	got, err := DecodeMessage(buf[:])
	if err != nil {
		t.Fatalf("DecodeMessage: %v", err)
	}
	if got != m {
		t.Errorf("round trip mismatch: got %v, want %v", got, m)
	}
}

func TestMessageEncodeDecodeProperty(t *testing.T) {
	f := func(op uint8, pid int32, a1, a2, a3, seq uint64) bool {
		m := Message{Op: Op(uint32(op) % uint32(numOps)), PID: pid, Arg1: a1, Arg2: a2, Arg3: a3, Seq: seq}
		var buf [MessageSize]byte
		m.Encode(buf[:])
		got, err := DecodeMessage(buf[:])
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsShortBuffer(t *testing.T) {
	if _, err := DecodeMessage(make([]byte, MessageSize-1)); err == nil {
		t.Error("DecodeMessage accepted a short buffer")
	}
}

func TestDecodeRejectsInvalidOp(t *testing.T) {
	var buf [MessageSize]byte
	Message{Op: numOps + 5}.Encode(buf[:])
	if _, err := DecodeMessage(buf[:]); err == nil {
		t.Error("DecodeMessage accepted an invalid op code")
	}
}

func TestOpStrings(t *testing.T) {
	for op := OpNop; op < numOps; op++ {
		if s := op.String(); s == "" || s[0] == 'o' && s[1] == 'p' && s[2] == '(' {
			t.Errorf("op %d has no name", op)
		}
	}
	if got := Op(9999).String(); got != "op(9999)" {
		t.Errorf("unknown op String = %q", got)
	}
}

// channelConstructors lists every software primitive for table-driven tests.
func channelConstructors() map[string]func() *Channel {
	return map[string]func() *Channel{
		"shm":    func() *Channel { return NewSharedRing(64) },
		"mq":     NewMessageQueue,
		"pipe":   NewPipe,
		"socket": NewSocket,
		"lwc":    NewLWC,
	}
}

func TestChannelDeliveryInOrder(t *testing.T) {
	for name, mk := range channelConstructors() {
		t.Run(name, func(t *testing.T) {
			ch := mk()
			const n = 50
			done := make(chan error, 1)
			go func() {
				for i := 0; i < n; i++ {
					if err := ch.Sender.Send(Message{Op: OpCounterInc, Arg1: uint64(i)}); err != nil {
						done <- err
						return
					}
				}
				done <- ch.Sender.Close()
			}()
			for i := 0; i < n; i++ {
				m, ok, err := RecvOne(ch.Receiver)
				if err != nil {
					t.Fatalf("Recv error at %d: %v", i, err)
				}
				if !ok {
					t.Fatalf("channel closed early at message %d", i)
				}
				if m.Arg1 != uint64(i) {
					t.Fatalf("out of order: got arg %d at position %d", m.Arg1, i)
				}
				if m.Seq != uint64(i+1) {
					t.Fatalf("sequence counter: got %d at position %d", m.Seq, i)
				}
			}
			if err := <-done; err != nil {
				t.Fatalf("sender: %v", err)
			}
		})
	}
}

func TestChannelCloseDrains(t *testing.T) {
	for name, mk := range channelConstructors() {
		t.Run(name, func(t *testing.T) {
			ch := mk()
			if err := ch.Sender.Send(Message{Op: OpInit}); err != nil {
				t.Fatalf("Send: %v", err)
			}
			if err := ch.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if _, ok, err := RecvOne(ch.Receiver); !ok || err != nil {
				t.Fatalf("pending message lost on close: ok=%t err=%v", ok, err)
			}
			if _, ok, _ := RecvOne(ch.Receiver); ok {
				t.Error("Recv returned a message after drain")
			}
		})
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	for name, mk := range channelConstructors() {
		t.Run(name, func(t *testing.T) {
			ch := mk()
			ch.Close()
			if err := ch.Sender.Send(Message{}); err == nil {
				t.Error("Send after Close succeeded")
			}
		})
	}
}

func TestSharedRingBlocksWhenFull(t *testing.T) {
	ch := NewSharedRing(8)
	ring := ch.Sender.(*SharedRing)
	for i := 0; i < 8; i++ {
		if err := ring.Send(Message{Arg1: uint64(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if got := ring.Pending(); got != 8 {
		t.Fatalf("Pending = %d, want 8", got)
	}
	// A full ring must block the sender until the receiver drains; verify by
	// draining concurrently and checking the blocked send completes.
	done := make(chan error, 1)
	go func() { done <- ring.Send(Message{Arg1: 99}) }()
	for i := 0; i < 9; i++ {
		m, ok, err := RecvOne(ring)
		if !ok || err != nil {
			t.Fatalf("Recv %d: ok=%t err=%v", i, ok, err)
		}
		want := uint64(i)
		if i == 8 {
			want = 99
		}
		if m.Arg1 != want {
			t.Fatalf("Recv %d: got arg %d, want %d", i, m.Arg1, want)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("blocked Send: %v", err)
	}
}

func TestSharedRingIsNotAppendOnly(t *testing.T) {
	ch := NewSharedRing(16)
	ring := ch.Sender.(*SharedRing)
	// Send evidence of a violation, then "compromise" the program and erase it.
	ring.Send(Message{Op: OpPointerCheck, Arg1: 0x1000, Arg2: 0xbad})
	if !ring.Corrupt(0, Message{Op: OpNop}) {
		t.Fatal("Corrupt failed on an unread slot")
	}
	m, ok, err := RecvOne(ring)
	if !ok || err != nil {
		t.Fatalf("RecvOne: ok=%t err=%v", ok, err)
	}
	if m.Op != OpNop {
		t.Errorf("evidence survived corruption: got %v", m)
	}
	if ch.Props.AppendOnly {
		t.Error("shared ring must advertise AppendOnly=false")
	}
	if ring.Corrupt(5, Message{}) {
		t.Error("Corrupt succeeded on a nonexistent slot")
	}
}

func TestPropertiesSuitability(t *testing.T) {
	// Table 2: only the AppendWrite primitives satisfy both requirements;
	// among software primitives, none do.
	for name, mk := range channelConstructors() {
		ch := mk()
		ch.Close()
		if ch.Props.Suitable() {
			t.Errorf("%s: software primitive reports Suitable()=true", name)
		}
	}
}

func TestTable2CostOrdering(t *testing.T) {
	// The modelled costs must preserve the paper's ordering:
	// shm < mq < pipe < socket < lwc.
	shm := NewSharedRing(8).Props.SendNanos
	mq := NewMessageQueue().Props.SendNanos
	pipe := NewPipe().Props.SendNanos
	sock := NewSocket().Props.SendNanos
	lwc := NewLWC().Props.SendNanos
	if !(shm < mq && mq < pipe && pipe < sock && sock < lwc) {
		t.Errorf("cost ordering violated: shm=%v mq=%v pipe=%v socket=%v lwc=%v",
			shm, mq, pipe, sock, lwc)
	}
}

func BenchmarkSendSharedRing(b *testing.B) {
	benchmarkSend(b, NewSharedRing(1<<16))
}

func BenchmarkSendMessageQueue(b *testing.B) {
	benchmarkSend(b, NewMessageQueue())
}

func BenchmarkSendPipe(b *testing.B) {
	benchmarkSend(b, NewPipe())
}

func BenchmarkSendSocket(b *testing.B) {
	benchmarkSend(b, NewSocket())
}

func benchmarkSend(b *testing.B, ch *Channel) {
	defer ch.Close()
	// Drain in the background so bounded backends do not stall.
	go func() {
		for {
			if _, ok, _ := RecvOne(ch.Receiver); !ok {
				return
			}
		}
	}()
	m := Message{Op: OpPointerDefine, Arg1: 1, Arg2: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ch.Sender.Send(m); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRecvBatchDeliversInOrder(t *testing.T) {
	for name, mk := range channelConstructors() {
		t.Run(name, func(t *testing.T) {
			ch := mk()
			const n = 100
			done := make(chan error, 1)
			go func() {
				for i := 0; i < n; i++ {
					if err := ch.Sender.Send(Message{Op: OpCounterInc, Arg1: uint64(i)}); err != nil {
						done <- err
						return
					}
				}
				done <- ch.Sender.Close()
			}()
			buf := make([]Message, 7) // odd size: bursts straddle frame counts
			got := 0
			for got < n {
				k, ok, err := ch.Receiver.RecvBatch(buf)
				if err != nil {
					t.Fatalf("RecvBatch at %d: %v", got, err)
				}
				if !ok && k == 0 {
					t.Fatalf("channel closed early at message %d", got)
				}
				for i := 0; i < k; i++ {
					if buf[i].Arg1 != uint64(got+i) {
						t.Fatalf("out of order: got arg %d at position %d", buf[i].Arg1, got+i)
					}
					if buf[i].Seq != uint64(got+i+1) {
						t.Fatalf("sequence: got %d at position %d", buf[i].Seq, got+i)
					}
				}
				got += k
			}
			if k, ok, err := ch.Receiver.RecvBatch(buf); ok || k != 0 || err != nil {
				t.Fatalf("after drain: k=%d ok=%t err=%v", k, ok, err)
			}
			if err := <-done; err != nil {
				t.Fatalf("sender: %v", err)
			}
		})
	}
}

func TestPendingObservableOnAllBackends(t *testing.T) {
	for name, mk := range channelConstructors() {
		t.Run(name, func(t *testing.T) {
			ch := mk()
			p, ok := PendingOf(ch.Receiver)
			if !ok {
				t.Fatalf("%s receiver does not implement Pender", name)
			}
			if p != 0 {
				t.Fatalf("fresh channel Pending = %d", p)
			}
			const n = 5
			for i := 0; i < n; i++ {
				if err := ch.Sender.Send(Message{Op: OpInit}); err != nil {
					t.Fatalf("Send: %v", err)
				}
			}
			if p, _ := PendingOf(ch.Receiver); p != n {
				t.Errorf("Pending after %d sends = %d", n, p)
			}
			buf := make([]Message, n)
			k, _, err := ch.Receiver.RecvBatch(buf)
			if err != nil || k != n {
				t.Fatalf("RecvBatch: k=%d err=%v", k, err)
			}
			if p, _ := PendingOf(ch.Receiver); p != 0 {
				t.Errorf("Pending after drain = %d", p)
			}
			ch.Close()
		})
	}
}

func TestFdReceiverCarriesPartialFrames(t *testing.T) {
	// A stream receiver must reassemble frames that arrive torn across
	// reads: write 1.5 frames, then the remainder plus another frame.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Skip("pipes unavailable")
	}
	r := newFDReceiver(pr, new(atomic.Int64))
	var frame [2 * MessageSize]byte
	Message{Op: OpCounterInc, Arg1: 1, Seq: 1}.Encode(frame[:])
	Message{Op: OpCounterInc, Arg1: 2, Seq: 2}.Encode(frame[MessageSize:])
	half := MessageSize + MessageSize/2
	if _, err := pw.Write(frame[:half]); err != nil {
		t.Fatal(err)
	}
	buf := make([]Message, 4)
	k, ok, err := r.RecvBatch(buf)
	if err != nil || !ok || k != 1 {
		t.Fatalf("first burst: k=%d ok=%t err=%v, want one whole frame", k, ok, err)
	}
	if buf[0].Arg1 != 1 {
		t.Errorf("first frame arg = %d", buf[0].Arg1)
	}
	if _, err := pw.Write(frame[half:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	k, ok, err = r.RecvBatch(buf)
	if err != nil || !ok || k != 1 {
		t.Fatalf("second burst: k=%d ok=%t err=%v", k, ok, err)
	}
	if buf[0].Arg1 != 2 {
		t.Errorf("reassembled frame arg = %d, want 2", buf[0].Arg1)
	}
	if k, ok, _ := r.RecvBatch(buf); ok || k != 0 {
		t.Errorf("after close: k=%d ok=%t", k, ok)
	}
}

func TestReplayServesRecordedStream(t *testing.T) {
	msgs := make([]Message, 10)
	for i := range msgs {
		msgs[i] = Message{Op: OpCounterInc, Arg1: uint64(i), Seq: uint64(i + 1)}
	}
	r := NewReplay(msgs)
	if r.Pending() != 10 {
		t.Fatalf("Pending = %d", r.Pending())
	}
	buf := make([]Message, 4)
	total := 0
	for {
		k, ok, err := r.RecvBatch(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		for i := 0; i < k; i++ {
			if buf[i].Arg1 != uint64(total+i) {
				t.Fatalf("out of order at %d", total+i)
			}
		}
		total += k
	}
	if total != 10 {
		t.Fatalf("replayed %d messages", total)
	}
	r.Rewind()
	if m, ok, _ := RecvOne(r); !ok || m.Arg1 != 0 {
		t.Errorf("rewind failed: ok=%t m=%v", ok, m)
	}
}

func TestNewSharedRingClampsCapacity(t *testing.T) {
	// Regression: a negative capacity converted to uint64 is enormous, and
	// the power-of-two round-up loop shifted past it to zero and spun
	// forever. All out-of-range requests must clamp and terminate.
	for _, tc := range []struct {
		in   int
		want int
	}{
		{-1, MinRingCapacity},
		{0, MinRingCapacity},
		{1, MinRingCapacity},
		{7, MinRingCapacity},
		{9, 16},
		{1 << 30, MaxRingCapacity},
	} {
		ch := NewSharedRing(tc.in)
		r := ch.Sender.(*SharedRing)
		if len(r.slots) != tc.want {
			t.Errorf("NewSharedRing(%d): %d slots, want %d", tc.in, len(r.slots), tc.want)
		}
		// The clamped ring must actually work.
		ch.Sender.Send(Message{Op: OpCounterInc, Arg1: 1})
		if m, ok, err := RecvOne(ch.Receiver); !ok || err != nil || m.Arg1 != 1 {
			t.Errorf("NewSharedRing(%d): roundtrip failed: %v %t %v", tc.in, m, ok, err)
		}
		ch.Close()
	}
}

func TestChannelTelemetryCounts(t *testing.T) {
	m := telemetry.New(1)
	ch := NewSharedRing(64)
	ch.EnableTelemetry(m)
	const n = 10
	for i := 0; i < n; i++ {
		if err := ch.Sender.Send(Message{Op: OpCounterInc, Arg1: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]Message, 4)
	got := 0
	for got < n {
		k, ok, err := ch.Receiver.RecvBatch(buf)
		if err != nil || !ok {
			t.Fatalf("RecvBatch: k=%d ok=%t err=%v", k, ok, err)
		}
		got += k
	}
	ch.Close()
	if err := ch.Sender.Send(Message{Op: OpCounterInc}); err == nil {
		t.Error("send after close succeeded")
	}
	snap := m.Snapshot()
	if v := snap.Counters["ipc.sends"].Total; v != n {
		t.Errorf("ipc.sends = %d, want %d", v, n)
	}
	if v := snap.Counters["ipc.recvs"].Total; v != n {
		t.Errorf("ipc.recvs = %d, want %d", v, n)
	}
	if v := snap.Counters["ipc.send_errors"].Total; v != 1 {
		t.Errorf("ipc.send_errors = %d, want 1", v)
	}
	if v := snap.Counters["ipc.recv_batches"].Total; v == 0 {
		t.Error("no receive batches recorded")
	}
	h := snap.Histograms["ipc.recv_batch_size"]
	if h.Count == 0 || h.Sum != n {
		t.Errorf("batch-size histogram count=%d sum=%d, want sum %d", h.Count, h.Sum, n)
	}
	if snap.Peaks["ipc.pending_peak"] == 0 {
		t.Error("pending high-water never observed")
	}
}

func TestTelemetryCountsPartialFrameCarries(t *testing.T) {
	// The fd framing layer's partial-frame carry is internal state the
	// wrapper cannot see; EnableTelemetry must instrument it directly.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Skip("pipes unavailable")
	}
	m := telemetry.New(1)
	ch := &Channel{
		Sender:   &fdSender{w: pw, pending: new(atomic.Int64)},
		Receiver: newFDReceiver(pr, new(atomic.Int64)),
	}
	ch.EnableTelemetry(m)
	var frame [2 * MessageSize]byte
	Message{Op: OpCounterInc, Arg1: 1, Seq: 1}.Encode(frame[:])
	Message{Op: OpCounterInc, Arg1: 2, Seq: 2}.Encode(frame[MessageSize:])
	half := MessageSize + MessageSize/2
	if _, err := pw.Write(frame[:half]); err != nil {
		t.Fatal(err)
	}
	buf := make([]Message, 4)
	if k, ok, err := ch.Receiver.RecvBatch(buf); err != nil || !ok || k != 1 {
		t.Fatalf("first burst: k=%d ok=%t err=%v", k, ok, err)
	}
	if _, err := pw.Write(frame[half:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if k, ok, err := ch.Receiver.RecvBatch(buf); err != nil || !ok || k != 1 {
		t.Fatalf("second burst: k=%d ok=%t err=%v", k, ok, err)
	}
	if v := m.Snapshot().Counters["ipc.partial_frame_carries"].Total; v != 1 {
		t.Errorf("partial_frame_carries = %d, want 1", v)
	}
}
