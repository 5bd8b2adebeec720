package hqnet

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/policy"
	"herqules/internal/supervisor"
)

// These tests pin down where the client seals: a frame sent through
// Sender() on a keyed session is stamped with its tag by the flush that
// writes it; a frame sent through the raw Send is not.

// sealedHarness is a daemon whose chain authenticates every frame (hmac)
// and counts them (counter).
func sealedHarness(t *testing.T) *harness {
	t.Helper()
	factory, err := policy.SetFactory("hmac", "counter")
	if err != nil {
		t.Fatal(err)
	}
	return newHarness(t,
		supervisor.Config{Policies: factory, KillOnViolation: true},
		Config{Lease: 10 * time.Second})
}

// TestRawSendOnKeyedSessionKilledByHMAC: a frame sent through Client.Send
// on a keyed session carries no tag, and the daemon's hmac kills the process
// for it, attributed to hmac — the unsealed canary of the end-to-end
// benchmark.
func TestRawSendOnKeyedSessionKilledByHMAC(t *testing.T) {
	h := sealedHarness(t)
	c := h.dial(t, ClientConfig{HeartbeatEvery: time.Hour})
	defer c.Close()
	if !c.keyed {
		t.Fatal("client not keyed under an hmac policy set")
	}
	sendN(t, c.Sender(), 20) // sealed: these authenticate
	_ = c.Send(ipc.Message{Op: ipc.OpPointerDefine, Arg1: 0x1000, Arg2: 0x401000})
	_ = c.Send(ipc.Message{Op: ipc.OpSyscall})
	if err := c.SyscallEnter(c.PID(), 0); err == nil {
		t.Fatal("gate passed after an unsealed frame on a keyed session")
	}
	waitFor(t, 5*time.Second, "kill attributed", func() bool {
		return h.sys.Stats().ViolationsByPolicy["hmac"] == 1
	})
	if killed, reason := h.killReason(c.PID()); !killed {
		t.Fatal("process not killed")
	} else {
		t.Logf("killed: %s", reason)
	}
	if st := h.sys.Stats(); len(st.ViolationsByPolicy) != 1 {
		t.Fatalf("violations by policy = %v, want hmac's alone", st.ViolationsByPolicy)
	}
}

// TestMixedSendsSealExactlyTheSealedOnes: on a keyed session that mixes
// Sender() and raw Send frames in seeded runs, every frame on the wire
// carries the tag ipc.MacSeal gives it if it went through Sender() and the
// Mac it was sent with otherwise. The ring (50 slots, not a multiple of the
// 8-frame pass) wraps many times, so runs of sealed frames are cut at the
// ring's end and at every flush, and a heartbeat every millisecond flushes —
// and seals — from its own goroutine while Send fills the ring.
func TestMixedSendsSealExactlyTheSealedOnes(t *testing.T) {
	key := ipc.MacKey{K0: 0x0123456789abcdef, K1: 0xfedcba9876543210}
	network, addr := ackingPeer(t, &key)
	var tap wireTap
	c, err := Dial(context.Background(), ClientConfig{Network: network, Addr: addr, ReplaySlots: 50,
		HeartbeatEvery: time.Millisecond, WrapConn: tap.wrap})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sealed := c.Sender()

	rng := rand.New(rand.NewSource(21))
	var want []bool // by Seq-1: sent through Sender()
	for len(want) < 3000 {
		seal, run := rng.Intn(3) != 0, 1+rng.Intn(20)
		for i := 0; i < run; i++ {
			m := ipc.Message{Op: ipc.OpCounterInc, Arg1: rng.Uint64(), Arg2: uint64(len(want))}
			s := ipc.Sender(c)
			if seal {
				s, m.Mac = sealed, rng.Uint64() // a stale Mac is overwritten
			}
			if err := s.Send(m); err != nil {
				t.Fatal(err)
			}
			want = append(want, seal)
		}
	}
	if !c.Flush(10 * time.Second) {
		t.Fatal("flush timed out")
	}

	n := 0
	for _, w := range tap.written(0)[1:] { // after the hello
		for off := 0; off < len(w); off += ipc.MessageSize {
			m, err := ipc.DecodeMessage(w[off:])
			if err != nil {
				t.Fatal(err)
			}
			if m.Op.IsSessionOp() {
				continue
			}
			n++
			if m.Seq != uint64(n) || m.PID != 7 {
				t.Fatalf("frame %d on the wire: Seq %d PID %d, want Seq %d PID 7", n, m.Seq, m.PID, n)
			}
			tag := ipc.MacSeal(key, m, m.Seq)
			if want[n-1] && m.Mac != tag {
				t.Fatalf("frame %d, sent through Sender(): Mac %#x, want the tag %#x", n, m.Mac, tag)
			}
			if !want[n-1] && m.Mac != 0 {
				t.Fatalf("frame %d, sent raw: Mac %#x, want 0 as sent", n, m.Mac)
			}
		}
	}
	if n != len(want) {
		t.Fatalf("%d data frames on the wire, %d sent", n, len(want))
	}
}

// TestSealedResumeAfterSeverWithUnwrittenFrames: a keyed session is severed
// with frames admitted to the ring but never written — never sealed, then —
// behind a burst that was. The resume writes (and seals) every frame past the
// daemon's ack on the new connection, and the process survives: every frame
// authenticates and the gate passes.
func TestSealedResumeAfterSeverWithUnwrittenFrames(t *testing.T) {
	h := sealedHarness(t)
	var tap wireTap
	c := h.dial(t, ClientConfig{HeartbeatEvery: time.Hour, WrapConn: tap.wrap})
	defer c.Close()
	s := c.Sender()

	const first = burstFrames + 100 // one burst written, 100 frames not
	sendN(t, s, first)
	unwritten := c.tail.Load() - c.sent.Load()
	if unwritten != 100 {
		t.Fatalf("%d frames unwritten before the sever, want 100", unwritten)
	}
	tap.sever(0)
	const after = 500
	sendN(t, s, after)
	gateThrough(t, c, s, 4)
	if got := c.Resumes(); got == 0 {
		t.Fatal("the session was never resumed: the test exercised nothing")
	}
	if killed, reason := h.killReason(c.PID()); killed {
		t.Fatalf("clean sealed process killed across a resume: %s", reason)
	}
	waitFor(t, 10*time.Second, "every message verified", func() bool {
		return h.procMessages(c.PID()) == first+after+1
	})
}
