package hqnet

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/supervisor"
)

// These tests pin down what an ack may do to the client's ring (release a
// frame whose write has returned, and nothing else) and when the daemon sends
// one (once per read(2)).

// TestAckBeyondWrittenReleasesNothingUnsent: one bad Seq from the wire must
// not cost the replay ring frames a later resume needs. The peer receives 100
// frames, acks half the Seq space while 50 more sit unwritten in the client's
// ring, and severs. The resumed stream has to carry on at frame 101, gap-free,
// and the gate behind it has to pass.
func TestAckBeyondWrittenReleasesNothingUnsent(t *testing.T) {
	const pid, seen, unsent = 7, 100, 50
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lie := make(chan struct{})
	peerDone := make(chan struct{})
	t.Cleanup(func() { ln.Close(); <-peerDone })
	go func() {
		defer close(peerDone)
		// accept serves one connection's handshake: want is the request's op,
		// ack the Seq the welcome carries.
		accept := func(want ipc.Op, ack uint64) (net.Conn, *ipc.FrameDecoder, *ipc.FrameWriter) {
			nc, err := ln.Accept()
			if err != nil {
				return nil, nil, nil
			}
			dec, fw := ipc.NewFrameDecoder(nc), ipc.NewFrameWriter(nc)
			var one [1]ipc.Message
			if n, _, _ := dec.Decode(one[:]); n != 1 || one[0].Op != want {
				t.Errorf("peer: handshake frame %+v, want %v", one[0], want)
				nc.Close()
				return nil, nil, nil
			}
			_ = fw.WriteMessage(ipc.Message{Op: ipc.OpWelcome, PID: pid, Arg1: 1, Arg2: uint64(time.Minute), Seq: ack})
			return nc, dec, fw
		}
		var burst [64]ipc.Message
		var next uint64 = 1 // the data Seq the peer expects
		// read takes data frames until it has seen Seq upTo, or a gate request.
		read := func(dec *ipc.FrameDecoder, fw *ipc.FrameWriter, upTo uint64) bool {
			for next <= upTo {
				n, ok, _ := dec.Decode(burst[:])
				for _, m := range burst[:n] {
					switch {
					case m.Op == ipc.OpGateEnter:
						_ = fw.WriteMessage(ipc.Message{Op: ipc.OpGateResult, PID: pid, Arg1: GatePass, Arg3: m.Arg2, Seq: next - 1})
						return true
					case m.Op.IsSessionOp():
					case m.Seq != next:
						t.Errorf("peer: data Seq %d on the wire, want %d: the stream has a gap", m.Seq, next)
						return false
					default:
						next++
					}
				}
				if !ok {
					return false
				}
			}
			return true
		}

		nc, dec, fw := accept(ipc.OpHello, 0)
		if nc == nil || !read(dec, fw, seen) {
			return
		}
		<-lie
		_ = fw.WriteMessage(ipc.Message{Op: ipc.OpAck, PID: pid, Seq: ^uint64(0) >> 1})
		nc.Close()

		nc, dec, fw = accept(ipc.OpResume, seen)
		if nc == nil {
			return
		}
		defer nc.Close()
		read(dec, fw, ^uint64(0)) // until the gate
		_ = fw.WriteMessage(ipc.Message{Op: ipc.OpAck, PID: pid, Seq: next - 1})
		read(dec, fw, ^uint64(0)) // until the client hangs up
	}()

	c, err := Dial(context.Background(), ClientConfig{Network: "tcp", Addr: ln.Addr().String(), HeartbeatEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sendN(t, c, seen)
	c.flush(nil)
	sendN(t, c, unsent) // under a burst: these stay in the ring, unwritten
	close(lie)
	waitFor(t, 5*time.Second, "resume", func() bool { return c.Resumes() == 1 })
	checkRing(t, c)

	done := make(chan error, 1)
	go func() {
		if err := c.Send(ipc.Message{Op: ipc.OpSyscall, Arg1: 3}); err != nil {
			done <- err
			return
		}
		done <- c.SyscallEnter(c.PID(), 3)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("gate after the resume: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gate after the resume never answered")
	}
	checkRing(t, c)
	if !c.Flush(5 * time.Second) {
		t.Fatal("flush timed out")
	}
}

// lingerConn is a transport whose Write hands the bytes over at once and
// returns late: the daemon has read and acked them while the client still
// counts them as being written. It checks that the bytes did not change
// under the write.
type lingerConn struct {
	net.Conn
	handoff atomic.Bool // set once the session's handshake frame is out
	changed atomic.Int64
}

func (l *lingerConn) Write(p []byte) (int, error) {
	before := append([]byte(nil), p...)
	n, err := l.Conn.Write(p)
	if l.handoff.Swap(true) {
		// Long enough for the daemon's ack to come back and be applied, and
		// yielding, not sleeping: a timer's granularity here is a millisecond.
		for t0 := time.Now(); time.Since(t0) < 100*time.Microsecond; {
			runtime.Gosched()
		}
	}
	if !bytes.Equal(before, p) {
		l.changed.Add(1)
	}
	return n, err
}

// TestAckNeverReleasesInFlightFrames: with a ring of 8 slots every ack frees
// slots some Send is waiting for, and the daemon acks a burst long before the
// client's Write of it returns. A slot released on that ack would be encoded
// into by the next sender to come along while the Write still reads it: the
// race detector sees that, and the byte comparison sees it without the
// detector. (It takes several senders: a lone one is inside the Write itself.
// That rules out the sealed stream, which has one producer by construction;
// CheckSeq and the per-sender order stand in for the MAC downstream.)
func TestAckNeverReleasesInFlightFrames(t *testing.T) {
	h := newHarness(t,
		supervisor.Config{CheckSeq: true, KillOnViolation: true, Shards: 2},
		Config{Lease: 30 * time.Second})
	var lc *lingerConn
	c := h.dial(t, ClientConfig{ReplaySlots: 8, HeartbeatEvery: time.Hour, WrapConn: func(nc net.Conn) net.Conn {
		lc = &lingerConn{Conn: nc}
		return lc
	}})
	defer c.Close()

	const senders, perSender = 4, 5000
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := c.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: uint64(s), Arg2: uint64(i)}); err != nil {
					t.Errorf("sender %d, send %d: %v", s, i, err)
					return
				}
				checkRing(t, c)
			}
		}(s)
	}
	wg.Wait()
	if !c.Flush(20 * time.Second) {
		t.Fatal("flush timed out")
	}
	gateThrough(t, c, c, 3)
	if n := lc.changed.Load(); n != 0 {
		t.Fatalf("%d writes saw their bytes change before they returned: a slot was released in flight", n)
	}
	if killed, reason := h.killReason(c.PID()); killed {
		t.Fatalf("clean stream killed: %s", reason)
	}
	if got := h.procMessages(c.PID()); got != senders*perSender+1 {
		t.Fatalf("verified %d messages, want %d", got, senders*perSender+1)
	}
}

// readTap records, on the daemon's side of a connection, where in the
// client→daemon byte stream each Read ended, which acks were written after
// it, and every frame the daemon wrote.
type readTap struct {
	net.Conn
	mu     sync.Mutex
	bytes  int           // client→daemon bytes read so far
	events []tapAck      // one per OpAck written
	reads  int           // Reads that brought bytes, the handshake's excluded
	sent   []ipc.Message // daemon→client frames, in order
}

type tapAck struct {
	seq      uint64
	readEnd  int // bytes read when the ack was written
	readsNow int
}

func (r *readTap) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	r.mu.Lock()
	if n > 0 && r.bytes > 0 {
		r.reads++
	}
	r.bytes += n
	r.mu.Unlock()
	return n, err
}

func (r *readTap) Write(p []byte) (int, error) {
	if m, err := ipc.DecodeMessage(p); err == nil {
		r.mu.Lock()
		r.sent = append(r.sent, m)
		if m.Op == ipc.OpAck {
			r.events = append(r.events, tapAck{seq: m.Seq, readEnd: r.bytes, readsNow: r.reads})
		}
		r.mu.Unlock()
	}
	return r.Conn.Write(p)
}

type tapListener struct {
	net.Listener
	conns chan *readTap
}

func (l tapListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	rt := &readTap{Conn: nc}
	l.conns <- rt
	return rt, nil
}

// TestSessionAcksOncePerRead: the daemon acks a read(2), not each 256-frame
// slice RecvBatch hands the pump out of it. Every ack carries the Seq of the
// last whole frame its read brought, no read is acked twice, and the client
// ends with everything acked.
func TestSessionAcksOncePerRead(t *testing.T) {
	h := newHarness(t,
		supervisor.Config{CheckSeq: true, KillOnViolation: true, Shards: 2},
		Config{Lease: 10 * time.Second})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := tapListener{Listener: inner, conns: make(chan *readTap, 1)}
	h.srv.Serve(ln)
	c, err := Dial(context.Background(), ClientConfig{Network: "tcp", Addr: inner.Addr().String(), HeartbeatEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rt := <-ln.conns

	const bursts = 40
	for b := 0; b < bursts; b++ {
		sendN(t, c, burstFrames) // the last Send of each writes the burst out
		if b%8 == 7 {
			// Let the daemon drain now and then, so that reads of one burst
			// and reads of several both occur.
			if !c.Flush(10 * time.Second) {
				t.Fatal("flush timed out")
			}
		}
	}
	if !c.Flush(10 * time.Second) {
		t.Fatal("flush timed out")
	}
	c.mu.Lock()
	acked, nextSeq := c.acked, c.nextSeq
	c.mu.Unlock()
	if acked != nextSeq || nextSeq != bursts*burstFrames {
		t.Fatalf("after Flush acked=%d nextSeq=%d, want both %d", acked, nextSeq, bursts*burstFrames)
	}

	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.events) == 0 || len(rt.events) > rt.reads {
		t.Fatalf("%d acks for %d reads, want at least one and at most one per read", len(rt.events), rt.reads)
	}
	lastReads := 0
	for i, a := range rt.events {
		// The stream is the hello and then data frames with Seq 1, 2, …, so
		// the last whole frame of a read ending at byte b has Seq b/48 − 1.
		if want := uint64(a.readEnd/ipc.MessageSize - 1); a.seq != want {
			t.Fatalf("ack %d carries Seq %d, but the read before it ended at frame %d: acked mid-read", i, a.seq, want)
		}
		if a.readsNow == lastReads {
			t.Fatalf("ack %d is the second one after read %d", i, a.readsNow)
		}
		lastReads = a.readsNow
	}
	t.Logf("%d bursts of %d frames: %d reads, %d acks", bursts, burstFrames, rt.reads, len(rt.events))
}

// TestConcurrentSendGateHeartbeatNeverSplitFrames: four senders, a goroutine
// at the gate and a 1 ms heartbeat all end in flush at once. Every Write must
// be whole frames, the data frames must leave in Seq order with each sender's
// own frames in the order it sent them, control frames sit only between
// frames, and the daemon must verify every one. Run under -race.
func TestConcurrentSendGateHeartbeatNeverSplitFrames(t *testing.T) {
	h := newHarness(t,
		supervisor.Config{CheckSeq: true, KillOnViolation: true, Shards: 2},
		Config{Lease: 10 * time.Second})
	var tap wireTap
	c := ringChecked(t, h, &tap, ClientConfig{HeartbeatEvery: time.Millisecond, ReplaySlots: 1024})

	const senders, perSender, gates = 4, 5000, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 1; i <= perSender; i++ {
				m := ipc.Message{Op: ipc.OpCounterInc, Arg1: uint64(s)<<32 | uint64(i)}
				m.Arg2 = ^m.Arg1
				if err := c.Send(m); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
				checkRing(t, c)
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := 0; g < gates; g++ {
			if err := c.Send(ipc.Message{Op: ipc.OpSyscall, Arg1: 3}); err != nil {
				t.Errorf("gate sender: %v", err)
				return
			}
			if err := c.SyscallEnter(c.PID(), 3); err != nil {
				t.Errorf("gate %d: %v", g, err)
				return
			}
		}
	}()
	wg.Wait()
	if !c.Flush(10 * time.Second) {
		t.Fatal("flush timed out")
	}
	c.Close()

	var last [senders]uint64
	var seq uint64
	heartbeats, gateReqs := 0, 0
	for _, w := range tap.written(0) {
		if len(w) == 0 || len(w)%ipc.MessageSize != 0 {
			t.Fatalf("a write of %d bytes: not whole frames", len(w))
		}
		for off := 0; off < len(w); off += ipc.MessageSize {
			m, err := ipc.DecodeMessage(w[off:])
			if err != nil {
				t.Fatalf("wire frame does not decode: %v", err)
			}
			switch {
			case m.Op == ipc.OpHeartbeat:
				heartbeats++
			case m.Op == ipc.OpGateEnter:
				gateReqs++
			case m.Op.IsSessionOp():
			default:
				if seq++; m.Seq != seq || m.PID != c.PID() {
					t.Fatalf("data frame %+v on the wire, want Seq %d of pid %d", m, seq, c.PID())
				}
				if m.Op == ipc.OpSyscall {
					continue
				}
				s := int(m.Arg1 >> 32)
				if s >= senders || m.Arg2 != ^m.Arg1 {
					t.Fatalf("frame %+v mixes fields of two frames", m)
				}
				if i := m.Arg1 & 0xffffffff; i != last[s]+1 {
					t.Fatalf("sender %d: frame %d on the wire after frame %d", s, i, last[s])
				} else {
					last[s] = i
				}
			}
		}
	}
	if want := uint64(senders*perSender + gates); seq != want {
		t.Fatalf("%d data frames on the wire, want %d", seq, want)
	}
	if gateReqs != gates || heartbeats == 0 {
		t.Fatalf("%d gate requests and %d heartbeats on the wire, want %d and some", gateReqs, heartbeats, gates)
	}
	if killed, reason := h.killReason(c.PID()); killed {
		t.Fatalf("clean process killed: %s", reason)
	}
	if got, want := h.procMessages(c.PID()), uint64(senders*perSender+gates); got != want {
		t.Fatalf("verified %d messages, want %d", got, want)
	}
}
