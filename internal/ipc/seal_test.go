package ipc

import (
	"errors"
	"testing"
)

func TestMacSealDeterministicAndFieldSensitive(t *testing.T) {
	k := MacKey{K0: 0x0123456789abcdef, K1: 0xfedcba9876543210}
	m := Message{Op: OpPointerCheck, PID: 7, Arg1: 0x1000, Arg2: 0x4000, Arg3: 3}
	tag := MacSeal(k, m, 5)
	if tag != MacSeal(k, m, 5) {
		t.Fatal("MacSeal not deterministic")
	}
	// Every authenticated field, the stream position and the key must all
	// perturb the tag.
	perturbed := []struct {
		name string
		tag  uint64
	}{
		{"op", MacSeal(k, Message{Op: OpPointerDefine, PID: 7, Arg1: 0x1000, Arg2: 0x4000, Arg3: 3}, 5)},
		{"pid", MacSeal(k, Message{Op: OpPointerCheck, PID: 8, Arg1: 0x1000, Arg2: 0x4000, Arg3: 3}, 5)},
		{"arg1", MacSeal(k, Message{Op: OpPointerCheck, PID: 7, Arg1: 0x1001, Arg2: 0x4000, Arg3: 3}, 5)},
		{"arg2", MacSeal(k, Message{Op: OpPointerCheck, PID: 7, Arg1: 0x1000, Arg2: 0x4001, Arg3: 3}, 5)},
		{"arg3", MacSeal(k, Message{Op: OpPointerCheck, PID: 7, Arg1: 0x1000, Arg2: 0x4000, Arg3: 4}, 5)},
		{"seq", MacSeal(k, m, 6)},
		{"key", MacSeal(MacKey{K0: k.K0 ^ 1, K1: k.K1}, m, 5)},
	}
	for _, p := range perturbed {
		if p.tag == tag {
			t.Errorf("changing %s did not change the tag", p.name)
		}
	}
	// The Mac field itself is excluded from the input: sealing is
	// independent of whatever tag the message already carries.
	withMac := m
	withMac.Mac = 0xdeadbeef
	if MacSeal(k, withMac, 5) != tag {
		t.Error("Mac field leaked into the MAC input")
	}
}

func TestMacSeal2MatchesMacSeal(t *testing.T) {
	k := MacKey{K0: 0x0123456789abcdef, K1: 0xfedcba9876543210}
	ms := make([]Message, 65)
	for i := range ms {
		x := uint64(i+1) * 0x9e3779b97f4a7c15
		ms[i] = Message{Op: Op(i) % numOps, PID: int32(x >> 40), Arg1: x, Arg2: x >> 7, Arg3: ^x, Seq: x >> 3, Mac: x}
	}
	for i := 0; i+1 < len(ms); i++ {
		ta, tb := MacSeal2(k, &ms[i], &ms[i+1])
		if ta != MacSeal(k, ms[i], ms[i].Seq) || tb != MacSeal(k, ms[i+1], ms[i+1].Seq) {
			t.Fatalf("MacSeal2 disagrees with MacSeal on frames %d and %d", i, i+1)
		}
	}
}

func TestSealSenderStampsSeqAndMac(t *testing.T) {
	k := MacKey{K0: 1, K1: 2}
	var got []Message
	s := SealSender(SenderFunc(func(m Message) error {
		got = append(got, m)
		return nil
	}), k)
	for i := 0; i < 3; i++ {
		if err := s.Send(Message{Op: OpCounterInc, PID: 1, Arg1: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range got {
		if m.Seq != uint64(i+1) {
			t.Errorf("message %d: Seq = %d, want %d", i, m.Seq, i+1)
		}
		if m.Mac != MacSeal(k, m, m.Seq) {
			t.Errorf("message %d: tag does not verify", i)
		}
	}
}

func TestSealSenderFailedSendConsumesNoOrdinal(t *testing.T) {
	k := MacKey{K0: 1, K1: 2}
	fail := true
	var got []Message
	s := SealSender(SenderFunc(func(m Message) error {
		if fail {
			return errors.New("transient")
		}
		got = append(got, m)
		return nil
	}), k)
	if err := s.Send(Message{Op: OpCounterInc, PID: 1}); err == nil {
		t.Fatal("expected send failure")
	}
	fail = false
	if err := s.Send(Message{Op: OpCounterInc, PID: 1}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("retry after failure got seq %+v, want first accepted send at seq 1", got)
	}
}

func TestSealSenderMatchesBackendSeq(t *testing.T) {
	// The sealing wrapper derives Seq itself; the backend assigns its own on
	// accept. The two must agree, or the tag binds the wrong position.
	ch := NewSharedRing(64)
	defer ch.Close()
	k := MacKey{K0: 3, K1: 4}
	s := SealSender(ch.Sender, k)
	for i := 0; i < 5; i++ {
		if err := s.Send(Message{Op: OpCounterInc, PID: 1, Arg1: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		m, ok, err := RecvOne(ch.Receiver)
		if err != nil || !ok {
			t.Fatalf("recv %d: ok=%t err=%v", i, ok, err)
		}
		if m.Seq != uint64(i+1) {
			t.Fatalf("backend Seq = %d, want %d", m.Seq, i+1)
		}
		if m.Mac != MacSeal(k, m, m.Seq) {
			t.Fatalf("message %d: tag does not verify against backend-observed Seq", i)
		}
	}
}

func TestMessageEncodeDecodeCarriesMac(t *testing.T) {
	m := Message{Op: OpPointerCheck, PID: 9, Arg1: 1, Arg2: 2, Arg3: 3, Seq: 4, Mac: 0x1122334455667788}
	var buf [MessageSize]byte
	m.Encode(buf[:])
	d, err := DecodeMessage(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if d != m {
		t.Fatalf("round trip: got %+v, want %+v", d, m)
	}
}
