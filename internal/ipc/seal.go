package ipc

import (
	"math/bits"
	"unsafe"
)

// Message sealing: the sender-side half of the CCFI-style authenticated
// channel mode (Mashtizadeh et al.). A SealSender wraps any Sender with a
// per-process 128-bit key and stamps every outgoing message with a SipHash-2-4
// tag over the message body and its send ordinal. The verifier-side hmac
// policy recomputes the tag and strips it, so a transport that flips bits,
// replays, reorders, or splices messages between processes produces an
// attributable authentication kill instead of silent corruption — the
// append-only authenticity property survives an untrusted channel.

// MacKey is a 128-bit per-process message-authentication key, programmed by
// the kernel at registration time (the software stand-in for the paper's
// kernel-managed PID register, extended to a keyed channel).
type MacKey struct {
	K0, K1 uint64
}

// macInputLen is the fixed byte length of the MAC input: five 8-byte words
// (op|pid, the three arguments, and the sequence number). SipHash folds the
// input length into the final block; with a fixed-size input that is a
// constant.
const macInputLen = 40

// MacSeal computes the SipHash-2-4 tag of m's body under k, binding the
// message to stream position seq. The Mac field itself is excluded — the tag
// authenticates (Op, PID, Arg1, Arg2, Arg3, seq), so any bit flipped by the
// transport, any replayed ordinal, and any message spliced onto another
// process's stream (different key) all fail verification.
func MacSeal(k MacKey, m Message, seq uint64) uint64 {
	v0 := k.K0 ^ 0x736f6d6570736575
	v1 := k.K1 ^ 0x646f72616e646f6d
	v2 := k.K0 ^ 0x6c7967656e657261
	v3 := k.K1 ^ 0x7465646279746573

	round := func(w uint64) {
		v3 ^= w
		for i := 0; i < 2; i++ {
			v0 += v1
			v1 = v1<<13 | v1>>51
			v1 ^= v0
			v0 = v0<<32 | v0>>32
			v2 += v3
			v3 = v3<<16 | v3>>48
			v3 ^= v2
			v0 += v3
			v3 = v3<<21 | v3>>43
			v3 ^= v0
			v2 += v1
			v1 = v1<<17 | v1>>47
			v1 ^= v2
			v2 = v2<<32 | v2>>32
		}
		v0 ^= w
	}

	round(uint64(m.Op)<<32 | uint64(uint32(m.PID)))
	round(m.Arg1)
	round(m.Arg2)
	round(m.Arg3)
	round(seq)
	// Finalization block: input length in the top byte, per the SipHash
	// padding rule for whole-word inputs.
	round(uint64(macInputLen) << 56)

	v2 ^= 0xff
	for i := 0; i < 4; i++ {
		v0 += v1
		v1 = v1<<13 | v1>>51
		v1 ^= v0
		v0 = v0<<32 | v0>>32
		v2 += v3
		v3 = v3<<16 | v3>>48
		v3 ^= v2
		v0 += v3
		v3 = v3<<21 | v3>>43
		v3 ^= v0
		v2 += v1
		v1 = v1<<17 | v1>>47
		v1 ^= v2
		v2 = v2<<32 | v2>>32
	}
	return v0 ^ v1 ^ v2 ^ v3
}

// sipRound is one SipRound of SipHash over the state (v0, v1, v2, v3), its two
// add-rotate-xor halves written side by side.
func sipRound(v0, v1, v2, v3 uint64) (uint64, uint64, uint64, uint64) {
	v0, v2 = v0+v1, v2+v3
	v1, v3 = bits.RotateLeft64(v1, 13)^v0, bits.RotateLeft64(v3, 16)^v2
	v0 = bits.RotateLeft64(v0, 32)
	v0, v2 = v0+v3, v2+v1
	v3, v1 = bits.RotateLeft64(v3, 21)^v0, bits.RotateLeft64(v1, 17)^v2
	v2 = bits.RotateLeft64(v2, 32)
	return v0, v1, v2, v3
}

// macSeal2 computes MacSeal(k, *a, a.Seq) and MacSeal(k, *b, b.Seq) with the
// two SipHash states advanced round by round in step. One frame's hash is a
// serial dependency chain; two side by side let the core overlap them, worth
// about a fifth of the scalar cost (the scalar loop is already close to
// issue-width-bound). It is the portable body of MacSeal8.
func macSeal2(k MacKey, a, b *Message) (ta, tb uint64) {
	a0 := k.K0 ^ 0x736f6d6570736575
	a1 := k.K1 ^ 0x646f72616e646f6d
	a2 := k.K0 ^ 0x6c7967656e657261
	a3 := k.K1 ^ 0x7465646279746573
	b0, b1, b2, b3 := a0, a1, a2, a3
	wa := [...]uint64{uint64(a.Op)<<32 | uint64(uint32(a.PID)), a.Arg1, a.Arg2, a.Arg3, a.Seq, macInputLen << 56}
	wb := [...]uint64{uint64(b.Op)<<32 | uint64(uint32(b.PID)), b.Arg1, b.Arg2, b.Arg3, b.Seq, macInputLen << 56}
	for i := range wa {
		a3 ^= wa[i]
		b3 ^= wb[i]
		a0, a1, a2, a3 = sipRound(a0, a1, a2, a3)
		b0, b1, b2, b3 = sipRound(b0, b1, b2, b3)
		a0, a1, a2, a3 = sipRound(a0, a1, a2, a3)
		b0, b1, b2, b3 = sipRound(b0, b1, b2, b3)
		a0 ^= wa[i]
		b0 ^= wb[i]
	}
	a2 ^= 0xff
	b2 ^= 0xff
	for i := 0; i < 4; i++ {
		a0, a1, a2, a3 = sipRound(a0, a1, a2, a3)
		b0, b1, b2, b3 = sipRound(b0, b1, b2, b3)
	}
	return a0 ^ a1 ^ a2 ^ a3, b0 ^ b1 ^ b2 ^ b3
}

// macSeal8Portable is MacSeal8 on a CPU without the 8-lane kernel: four
// two-lane calls.
func macSeal8Portable(k MacKey, ms *[8]Message) (tags [8]uint64) {
	for i := 0; i < 8; i += 2 {
		tags[i], tags[i+1] = macSeal2(k, &ms[i], &ms[i+1])
	}
	return tags
}

// MacSeal8 computes MacSeal(k, ms[i], ms[i].Seq) for eight consecutive
// messages in one pass. On amd64 with AVX-512 the eight SipHash states sit
// side by side in vector registers, one lane per message (macSeal8AVX512);
// elsewhere it is four two-lane passes. policy.HMAC.UnsealRun authenticates
// its windows in such groups.
func MacSeal8(k MacKey, ms *[8]Message) (tags [8]uint64) {
	if useAVX512 {
		macSeal8AVX512(&k, unsafe.Pointer(ms), &tags)
		return tags
	}
	return macSeal8Portable(k, ms)
}

// SealFrames stamps every encoded frame in frames — a whole number of
// MessageSize-byte frames — with its tag MacSeal(k, m, m.Seq), in place,
// eight frames a pass and the rest one by one. It computes exactly the tag
// SealSender would have put on each message, so sealing a frame again leaves
// it as it was. The hqnet client seals its bursts with it just before they
// are written.
func SealFrames(k MacKey, frames []byte) {
	const group = 8 * MessageSize
	for ; len(frames) >= group; frames = frames[group:] {
		var tags [8]uint64
		if useAVX512 {
			// Encoded frames are laid out as Message is in memory.
			macSeal8AVX512(&k, unsafe.Pointer(&frames[0]), &tags)
		} else {
			var ms [8]Message
			for i := range ms {
				ms[i] = frameMessage(frames[i*MessageSize:])
			}
			tags = macSeal8Portable(k, &ms)
		}
		for i, t := range tags {
			putU64(frames[i*MessageSize+macOffset:], t)
		}
	}
	for ; len(frames) >= MessageSize; frames = frames[MessageSize:] {
		m := frameMessage(frames)
		putU64(frames[macOffset:], MacSeal(k, m, m.Seq))
	}
}

// SenderFunc adapts a plain function to the Sender interface, for delivery
// paths that bypass a channel backend (the supervisor's inline mode).
type SenderFunc func(Message) error

// Send implements Sender.
func (f SenderFunc) Send(m Message) error { return f(m) }

// Close implements Sender as a no-op.
func (f SenderFunc) Close() error { return nil }

// SealSender wraps s so every message sent through it carries a MAC under
// key. The wrapper assigns the sequence number itself — the ordinal of the
// n-th successful send, counting from 1, which is exactly the value every
// backend in this module assigns (they all count accepted messages from 1) —
// so the tag it computes binds the same stream position the verifier will
// observe in Message.Seq. Like the backends, it requires a single producer
// goroutine per channel.
func SealSender(s Sender, key MacKey) Sender {
	return &sealingSender{s: s, key: key}
}

type sealingSender struct {
	s   Sender
	key MacKey
	// n counts successful sends, mirroring the backend's Seq (see
	// instrumentedSender for the single-producer argument).
	n uint64
}

func (ss *sealingSender) Send(m Message) error {
	seq := ss.n + 1
	m.Seq = seq
	m.Mac = MacSeal(ss.key, m, seq)
	if err := ss.s.Send(m); err != nil {
		// A failed send consumes no sequence number; a retry recomputes the
		// identical tag for the same position.
		return err
	}
	ss.n++
	return nil
}

func (ss *sealingSender) Close() error { return ss.s.Close() }

// SetPID implements PIDRegister by forwarding to the wrapped sender, keeping
// the kernel-managed register reachable through the sealing layer.
func (ss *sealingSender) SetPID(pid int32) {
	if reg, ok := ss.s.(PIDRegister); ok {
		reg.SetPID(pid)
	}
}

var (
	_ Sender      = SenderFunc(nil)
	_ Sender      = (*sealingSender)(nil)
	_ PIDRegister = (*sealingSender)(nil)
)
