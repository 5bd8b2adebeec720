package ipc

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// FuzzSealedRing is the sealed ring's differential test: one stream goes
// through SealSender over a SenderFunc (the per-message sealer, the
// reference) and through SealSender over a bare SharedRing of 8 to 64 slots,
// which a concurrent drain empties in bursts of varying size and now and
// then stops reading, so the producer meets full rings and waits. System-Call
// messages land where the input puts them, and so may raw sends on the ring
// (unsealed, they must not overwrite an open group) and the Close of the
// sealed or the raw handle. The drain must read exactly the reference's frames,
// bit for bit (Seq and Mac included; a raw frame keeps its Mac), none lost,
// duplicated or reordered; every accepted message must be published
// (readable) once the Send of a System-Call message or a raw Send returns
// and once Close returns; and a Send after Close must fail.
func FuzzSealedRing(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 0x10})
	f.Add(uint8(1), uint64(2), []byte{0x10, 1, 0x10, 2, 3, 0x10, 0xfe, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0xff, 1})
	f.Add(uint8(0), uint64(3), append(make([]byte, 40), 0xfe, 0xfe, 0x10))
	f.Add(uint8(3), uint64(4), append(append(make([]byte, 70), 0xfe), make([]byte, 70)...))
	f.Add(uint8(2), uint64(5), []byte{0xfe, 0xfe, 0xfe, 1, 2, 3, 0xff})
	f.Add(uint8(0), uint64(6), []byte{1, 2, 3, 0xfd, 4, 5, 6, 7, 8, 9, 10, 0xfd, 11, 0xfc})
	f.Add(uint8(0), uint64(7), append(make([]byte, 13), 0xfc, 1))
	f.Fuzz(func(t *testing.T, size uint8, seed uint64, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		slots := MinRingCapacity << (size % 4)
		k := MacKey{K0: seed, K1: ^seed * 0x9e3779b97f4a7c15}
		ch := NewSharedRing(slots)
		r := ch.Sender.(*SharedRing)
		defer r.Close() // a failed run still ends its drain
		s := SealSender(r, k)
		if v, ok := s.(*SharedRing); !ok || !v.sealed {
			t.Fatalf("SealSender over a bare SharedRing is a %T, want the sealed handle", s)
		}
		var want []Message
		ref := SealSender(SenderFunc(func(m Message) error { want = append(want, m); return nil }), k)

		var stalls atomic.Int32
		got := make(chan []Message, 1)
		go func() {
			var out []Message
			buf := make([]Message, slots+3)
			for i := 1; ; i++ {
				for n := stalls.Swap(0); n > 0; n-- {
					for j := 0; j < 4*slots; j++ {
						runtime.Gosched()
					}
				}
				n, ok, err := r.RecvBatch(buf[:1+(i*7)%len(buf)])
				if err != nil {
					t.Errorf("RecvBatch: %v", err)
				}
				out = append(out, buf[:n]...)
				if !ok {
					got <- out
					return
				}
			}
		}()

		closed := false
		x := seed
		for i, b := range ops {
			switch b {
			case 0xfe:
				stalls.Add(1)
				continue
			case 0xfc, 0xff:
				closeFn := s.Close
				if b == 0xfc {
					closeFn = r.Close
				}
				if err := closeFn(); err != nil {
					t.Fatal(err)
				}
				if head := r.head.Load(); head != uint64(len(want)) {
					t.Fatalf("after Close: head %d, %d messages accepted", head, len(want))
				}
				closed = true
				continue
			}
			x = x*6364136223846793005 + 1442695040888963407
			m := Message{Op: Op(b) % numOps, PID: int32(b) - 100, Arg1: x, Arg2: x >> 17, Arg3: uint64(i), Mac: x >> 5}
			raw := b == 0xfd
			var err error
			if raw {
				err = r.Send(m)
			} else {
				err = s.Send(m)
			}
			if closed {
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("Send after Close: %v, want ErrClosed", err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
			if raw {
				m.Seq = uint64(len(want)) + 1
				want = append(want, m)
				ref.(*sealingSender).n++
			} else {
				_ = ref.Send(m)
			}
			if m.Op == OpSyscall || raw {
				if head := r.head.Load(); head != uint64(len(want)) {
					t.Fatalf("message %d (%v, raw %t) returned with head %d, %d messages accepted", i, m.Op, raw, head, len(want))
				}
			}
		}
		if !closed {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if head := r.head.Load(); head != uint64(len(want)) {
				t.Fatalf("after Close: head %d, %d messages accepted", head, len(want))
			}
		}
		out := <-got
		if len(out) != len(want) {
			t.Fatalf("drain read %d frames, %d were accepted", len(out), len(want))
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("frame %d (ring of %d): drained %+v, the per-message sealer gives %+v", i, slots, out[i], want[i])
			}
		}
	})
}

// TestSealSenderHoldsBackOnlyOnABareRing: a ring gets the grouped view:
// seven sealed messages wait unpublished and the eighth publishes all eight.
// A sealed message on an append-only channel is in the channel when Send
// returns.
func TestSealSenderHoldsBackOnlyOnABareRing(t *testing.T) {
	k := MacKey{K0: 5, K1: 6}
	for name, ch := range map[string]*Channel{
		"message queue": NewMessageQueue(),
		"pipe":          NewPipe(),
		"socket":        NewSocket(),
	} {
		s := SealSender(ch.Sender, k)
		if err := s.Send(Message{Op: OpCounterInc, PID: 1}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, ok, err := RecvOne(ch.Receiver)
		if !ok || err != nil || m.Seq != 1 || m.Mac != MacSeal(k, m, 1) {
			t.Errorf("%s: first sealed message %+v ok=%t err=%v, want it sealed and readable", name, m, ok, err)
		}
		s.Close()
	}

	ch := NewSharedRing(64)
	r := ch.Sender.(*SharedRing)
	s := SealSender(ch.Sender, k)
	for i := 0; i < 7; i++ {
		if err := s.Send(Message{Op: OpCounterInc, PID: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.head.Load() - r.tail.Load(); n != 0 {
		t.Errorf("seven sealed messages on a ring, %d published, want the group held", n)
	}
	if err := s.Send(Message{Op: OpCounterInc, PID: 1}); err != nil {
		t.Fatal(err)
	}
	if n := r.head.Load() - r.tail.Load(); n != 8 {
		t.Errorf("the eighth sealed message, %d published, want 8", n)
	}
	s.Close()
	if err := s.Send(Message{Op: OpCounterInc, PID: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("send after Close returned %v, want ErrClosed", err)
	}
}

// TestSharedRingCloseDeliversOpenGroup: a sealed stream of fewer than eight
// messages with no System-Call message, closed through the raw handle
// rather than the sealed one, reaches the drain whole, every message under
// its tag.
func TestSharedRingCloseDeliversOpenGroup(t *testing.T) {
	k := MacKey{K0: 9, K1: 10}
	for n := 1; n < 8; n++ {
		ch := NewSharedRing(64)
		s := SealSender(ch.Sender, k)
		for i := 0; i < n; i++ {
			if err := s.Send(Message{Op: OpCounterInc, PID: 3, Arg1: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		ch.Sender.Close()
		buf := make([]Message, 16)
		got, ok, err := ch.Receiver.RecvBatch(buf)
		if !ok || err != nil || got != n {
			t.Fatalf("%d sealed sends, then the ring's Close: drain read %d (ok=%t err=%v)", n, got, ok, err)
		}
		for i, m := range buf[:got] {
			if m.Seq != uint64(i+1) || m.Arg1 != uint64(i) || m.Mac != MacSeal(k, m, m.Seq) {
				t.Errorf("%d sealed sends: frame %d is %+v, want seq %d under its tag", n, i, m, i+1)
			}
		}
		if _, ok, _ := ch.Receiver.RecvBatch(buf); ok {
			t.Errorf("%d sealed sends: the closed ring still reads ok after the group", n)
		}
	}
}

// BenchmarkSealedRingSend prices a sealed send into a SharedRing that a
// concurrent drain empties, per message: ring_policy's block shape into a
// ring of its size (see benchmarkRingSend). It must read 0 allocs/op.
func BenchmarkSealedRingSend(b *testing.B) { benchmarkRingSend(b, true) }

// BenchmarkRawRingSend is BenchmarkSealedRingSend through the raw handle:
// the same mix, ring and drain, each message unsealed and published on its
// own. It must read 0 allocs/op.
func BenchmarkRawRingSend(b *testing.B) { benchmarkRingSend(b, false) }

// benchmarkRingSend sends ring_policy's block shape (4096 data messages of a
// define/check/counter/allocation mix, then a System-Call message), round
// and round, into a 4096-slot ring, sealed or raw, which a concurrent drain
// empties 256 slots at a time. Besides ns/op it reports the drain's mean
// burst (msgs/recv) and, per 1000 sends, how often each side of the ring
// parked and how many wake-ups its peer handed it: the drain's on an empty
// ring, the producer's on a full one.
func benchmarkRingSend(b *testing.B, sealed bool) {
	const block = 4096
	mix := make([]Message, block+1)
	x := uint64(1)
	ops := [...]Op{OpPointerDefine, OpPointerCheck, OpPointerCheck, OpCounterInc, OpAllocCreate, OpAllocCheck}
	for i := range mix[:block] {
		x = x*6364136223846793005 + 1442695040888963407
		mix[i] = Message{Op: ops[x>>61%uint64(len(ops))], PID: 7, Arg1: x >> 20 &^ 7, Arg2: x >> 3}
	}
	mix[block] = Message{Op: OpSyscall, PID: 7}

	ch := NewSharedRing(block)
	r, s := ch.Sender.(*SharedRing), ch.Sender
	if sealed {
		s = SealSender(ch.Sender, MacKey{K0: 1, K1: 2})
	}
	var recvs, msgs int
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]Message, 256)
		for {
			n, ok, _ := ch.Receiver.RecvBatch(buf)
			if !ok {
				return
			}
			recvs, msgs = recvs+1, msgs+n
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Send(mix[i%len(mix)]); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()
	<-done
	b.StopTimer()
	perK := func(n *atomic.Uint32) float64 { return float64(n.Load()) * 1000 / float64(b.N) }
	b.ReportMetric(float64(msgs)/float64(max(recvs, 1)), "msgs/recv")
	b.ReportMetric(perK(&r.recv.parks), "drain-parks/ksend")
	b.ReportMetric(perK(&r.recv.wakes), "drain-wakes/ksend")
	b.ReportMetric(perK(&r.send.parks), "send-parks/ksend")
	b.ReportMetric(perK(&r.send.wakes), "send-wakes/ksend")
}
