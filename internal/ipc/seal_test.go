package ipc

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
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
		ta, tb := macSeal2(k, &ms[i], &ms[i+1])
		if ta != MacSeal(k, ms[i], ms[i].Seq) || tb != MacSeal(k, ms[i+1], ms[i+1].Seq) {
			t.Fatalf("macSeal2 disagrees with MacSeal on frames %d and %d", i, i+1)
		}
	}
}

// TestMacSeal8MatchesMacSeal holds both bodies of MacSeal8 — the AVX-512
// kernel, where the CPU has it, and the portable one — to MacSeal, the
// reference, on random frames and on the edges of every field: negative PIDs,
// ops past NumOps, Seq 0 and 2^64-1, and all-zero and all-ones keys.
func TestMacSeal8MatchesMacSeal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	keys := []MacKey{{}, {K0: math.MaxUint64, K1: math.MaxUint64}, {K0: 0x0123456789abcdef, K1: 0xfedcba9876543210}}
	edges := []Message{
		{Op: OpCounterInc, PID: -1, Seq: 0},
		{Op: numOps, PID: math.MinInt32, Seq: math.MaxUint64},
		{Op: math.MaxUint32, PID: math.MaxInt32, Arg1: math.MaxUint64, Arg2: math.MaxUint64, Arg3: math.MaxUint64},
		{},
	}
	bodies := map[string]func(MacKey, *[8]Message) [8]uint64{"portable": macSeal8Portable}
	if useAVX512 {
		bodies["avx512"] = func(k MacKey, ms *[8]Message) (tags [8]uint64) {
			macSeal8AVX512(&k, unsafe.Pointer(ms), &tags)
			return tags
		}
	} else {
		t.Log("no AVX-512 on this CPU: the 8-lane kernel is not tested")
	}
	for round := 0; round < 200; round++ {
		k := keys[round%len(keys)]
		if round >= len(keys) {
			k = MacKey{K0: rng.Uint64(), K1: rng.Uint64()}
		}
		var ms [8]Message
		for i := range ms {
			ms[i] = Message{Op: Op(rng.Uint32()), PID: int32(rng.Uint32()), Arg1: rng.Uint64(),
				Arg2: rng.Uint64(), Arg3: rng.Uint64(), Seq: rng.Uint64(), Mac: rng.Uint64()}
			if rng.Intn(3) == 0 {
				ms[i] = edges[rng.Intn(len(edges))]
			}
		}
		for name, seal := range bodies {
			tags := seal(k, &ms)
			for i, m := range ms {
				if want := MacSeal(k, m, m.Seq); tags[i] != want {
					t.Fatalf("%s body, key %#x, lane %d %v: tag %#x, MacSeal gives %#x", name, k, i, m, tags[i], want)
				}
			}
		}
	}
}

// TestSealFramesMatchesMacSeal: sealing encoded frames in place stamps each
// with the tag MacSeal gives its decoded message, for every length from none
// to three groups of eight and a remainder, from any byte alignment, and
// sealing again changes nothing.
func TestSealFramesMatchesMacSeal(t *testing.T) {
	k := MacKey{K0: 0x0123456789abcdef, K1: 0xfedcba9876543210}
	rng := rand.New(rand.NewSource(48))
	for n := 0; n <= 27; n++ {
		for _, skew := range []int{0, 1, 4} {
			buf := make([]byte, skew+n*MessageSize)
			frames := buf[skew:]
			want := make([]Message, n)
			for i := range want {
				want[i] = Message{Op: Op(rng.Intn(int(numOps) + 3)), PID: int32(rng.Uint32()), Arg1: rng.Uint64(),
					Arg2: rng.Uint64(), Arg3: rng.Uint64(), Seq: rng.Uint64()}
				want[i].Encode(frames[i*MessageSize:])
				want[i].Mac = MacSeal(k, want[i], want[i].Seq)
			}
			for pass := 0; pass < 2; pass++ {
				SealFrames(k, frames)
				for i := range want {
					if got := frameMessage(frames[i*MessageSize:]); got != want[i] {
						t.Fatalf("%d frames at skew %d, pass %d: frame %d is %v, want %v", n, skew, pass, i, got, want[i])
					}
				}
			}
		}
	}
}

// TestMessageLayoutIsWireEncoding: the 8-lane kernel reads a []Message and a
// ring of encoded frames alike, which holds only while Message's in-memory
// layout is the one Encode writes. A reordered or resized field fails here
// rather than failing every tag.
func TestMessageLayoutIsWireEncoding(t *testing.T) {
	var m Message
	fields := []struct {
		name         string
		offset, size uintptr
		wire         int
	}{
		{"Op", unsafe.Offsetof(m.Op), unsafe.Sizeof(m.Op), 0},
		{"PID", unsafe.Offsetof(m.PID), unsafe.Sizeof(m.PID), 4},
		{"Arg1", unsafe.Offsetof(m.Arg1), unsafe.Sizeof(m.Arg1), 8},
		{"Arg2", unsafe.Offsetof(m.Arg2), unsafe.Sizeof(m.Arg2), 16},
		{"Arg3", unsafe.Offsetof(m.Arg3), unsafe.Sizeof(m.Arg3), 24},
		{"Seq", unsafe.Offsetof(m.Seq), unsafe.Sizeof(m.Seq), 32},
		{"Mac", unsafe.Offsetof(m.Mac), unsafe.Sizeof(m.Mac), macOffset},
	}
	for _, f := range fields {
		if f.offset != uintptr(f.wire) {
			t.Errorf("Message.%s at offset %d, Encode writes it at %d", f.name, f.offset, f.wire)
		}
	}
	if sz := unsafe.Sizeof(m); sz != MessageSize {
		t.Errorf("unsafe.Sizeof(Message) = %d, MessageSize = %d", sz, MessageSize)
	}
	// The byte order: on amd64, where the kernel runs, a message's memory is
	// its encoding.
	m = Message{Op: 0x04030201, PID: 0x08070605, Arg1: 0x100f0e0d0c0b0a09, Arg2: 1 << 63, Arg3: 3, Seq: 0xfedc, Mac: 0xabcdef}
	var wire [MessageSize]byte
	m.Encode(wire[:])
	if mem := unsafe.Slice((*byte)(unsafe.Pointer(&m)), MessageSize); runtime.GOARCH == "amd64" && string(mem) != string(wire[:]) {
		t.Errorf("Message in memory\n % x\nencodes as\n % x", mem, wire)
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

func BenchmarkMacSeal(b *testing.B) {
	k := MacKey{K0: 1, K1: 2}
	m := Message{Op: OpCounterInc, PID: 7, Arg1: 1}
	var sink uint64
	for i := 0; i < b.N; i++ {
		m.Seq = uint64(i)
		sink ^= MacSeal(k, m, m.Seq)
	}
	_ = sink
}

// BenchmarkMacSeal8 reports the cost of one frame's tag in an 8-frame pass.
func BenchmarkMacSeal8(b *testing.B) {
	k := MacKey{K0: 1, K1: 2}
	var ms [8]Message
	for i := range ms {
		ms[i] = Message{Op: OpCounterInc, PID: 7, Arg1: 1, Seq: uint64(i + 1)}
	}
	var sink uint64
	for i := 0; i < b.N; i += 8 {
		tags := MacSeal8(k, &ms)
		sink ^= tags[0]
	}
	_ = sink
}
