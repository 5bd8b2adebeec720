package hqnet

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/policy"
	"herqules/internal/supervisor"
)

// These tests pin down the client's write path: Send encodes into the ring, a
// burst leaves in one write(2) straight from it, the six flush triggers fire,
// the wire bytes are the per-frame writer's, and a resume rewinds the write
// cursor with every other writer kept out until it has caught up.

// wireTap is a ClientConfig.WrapConn that records every write the client
// makes on each of its connections.
type wireTap struct {
	mu    sync.Mutex
	conns []*tapConn
	// blackhole, when true for a connection index, makes that connection
	// swallow every write after its handshake frame: the client believes the
	// bytes left, the daemon never sees them and so never acks them.
	blackhole func(conn int) bool
	// onWrite runs before write n (0 is the handshake) of connection conn
	// goes out.
	onWrite func(conn, n int)
	// onIO runs on the calling goroutine before every Write and every Read
	// of a tapped connection. A hook that takes the client's c.mu doubles as
	// the check that no Write (or Read) is ever called with c.mu held: it
	// would never return.
	onIO func()
}

type tapConn struct {
	net.Conn
	tap    *wireTap
	idx    int
	writes [][]byte // guarded by tap.mu
}

func (t *wireTap) wrap(nc net.Conn) net.Conn {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &tapConn{Conn: nc, tap: t, idx: len(t.conns)}
	t.conns = append(t.conns, c)
	return c
}

func (c *tapConn) Read(p []byte) (int, error) {
	if c.tap.onIO != nil {
		c.tap.onIO()
	}
	return c.Conn.Read(p)
}

func (c *tapConn) Write(p []byte) (int, error) {
	t := c.tap
	if t.onIO != nil {
		t.onIO()
	}
	t.mu.Lock()
	n := len(c.writes)
	c.writes = append(c.writes, append([]byte(nil), p...))
	t.mu.Unlock()
	if t.onWrite != nil {
		t.onWrite(c.idx, n)
	}
	if n > 0 && t.blackhole != nil && t.blackhole(c.idx) {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// written returns a snapshot of the writes made on connection i so far.
func (t *wireTap) written(i int) [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i >= len(t.conns) {
		return nil
	}
	return append([][]byte(nil), t.conns[i].writes...)
}

// sever closes connection i's transport out from under the client.
func (t *wireTap) sever(i int) {
	t.mu.Lock()
	nc := t.conns[i].Conn
	t.mu.Unlock()
	nc.Close()
}

// dataSeqs decodes writes and returns the Seq of every data frame in them,
// in wire order.
func dataSeqs(t *testing.T, writes [][]byte) []uint64 {
	t.Helper()
	var seqs []uint64
	for _, w := range writes {
		if len(w)%ipc.MessageSize != 0 {
			t.Fatalf("a write of %d bytes: not whole frames", len(w))
		}
		for off := 0; off < len(w); off += ipc.MessageSize {
			m, err := ipc.DecodeMessage(w[off:])
			if err != nil {
				t.Fatalf("wire frame does not decode: %v", err)
			}
			if !m.Op.IsSessionOp() {
				seqs = append(seqs, m.Seq)
			}
		}
	}
	return seqs
}

var counterInc = ipc.Message{Op: ipc.OpCounterInc, Arg1: 1}

// checkRing asserts the ring's invariants under c.mu: the three cursors in
// order, no more than a ring between head and tail, the ack high-water no
// further than what was admitted, and tailOff on tail's slot.
func checkRing(t testing.TB, c *Client) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !(c.head <= c.sent && c.sent <= c.tail) || c.tail-c.head > uint64(c.cfg.ReplaySlots) ||
		c.acked > c.nextSeq || c.tailOff != c.off(c.tail) {
		t.Errorf("ring invariant broken: head=%d sent=%d tail=%d slots=%d acked=%d nextSeq=%d tailOff=%d",
			c.head, c.sent, c.tail, c.cfg.ReplaySlots, c.acked, c.nextSeq, c.tailOff)
	}
}

// ringChecked dials through tap with checkRing hooked to every Write and Read
// of the client's connections: a Read follows every batch of acks recvLoop
// has applied (head moved) and the Writes bracket every flush (sent moved);
// callers add a check after each Send (tail moved).
func ringChecked(t *testing.T, h *harness, tap *wireTap, cfg ClientConfig) *Client {
	t.Helper()
	var c *Client
	ready := make(chan struct{})
	tap.onIO = func() {
		select {
		case <-ready:
			checkRing(t, c)
		default: // still inside Dial's handshake
		}
	}
	cfg.WrapConn = tap.wrap
	c = h.dial(t, cfg)
	close(ready)
	return c
}

func sendN(t *testing.T, s ipc.Sender, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Send(counterInc); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
}

// gateThrough sends the synchronization message and waits at the gate.
func gateThrough(t *testing.T, c *Client, s ipc.Sender, sysNo int) {
	t.Helper()
	if err := s.Send(ipc.Message{Op: ipc.OpSyscall, Arg1: uint64(sysNo)}); err != nil {
		t.Fatalf("send syscall: %v", err)
	}
	if err := c.SyscallEnter(c.PID(), sysNo); err != nil {
		t.Fatalf("gate: %v (want pass)", err)
	}
}

// TestSendDuringResumeStaysBehindReplayedFrames: a producer that keeps
// sending while a resume retransmits the replay buffer must not get its new
// frames onto the wire ahead of older ones. The daemon would forward the
// jump, drop the older frames as resume overlap, and CheckSeq would kill a
// clean process by counter gap. The second connection's first writes are
// slowed and each one lets the producer send, so the sends land inside the
// retransmission.
func TestSendDuringResumeStaysBehindReplayedFrames(t *testing.T) {
	kick := make(chan struct{}, 64) // one slot per slowed write, with room to spare
	tap := &wireTap{
		blackhole: func(conn int) bool { return conn == 0 },
		onWrite: func(conn, n int) {
			if conn == 1 && n >= 1 && n <= 20 {
				select {
				case kick <- struct{}{}:
				default:
				}
				time.Sleep(2 * time.Millisecond)
			}
		},
	}
	h := newHarness(t,
		supervisor.Config{CheckSeq: true, KillOnViolation: true, Shards: 2},
		Config{Lease: 10 * time.Second})
	c := ringChecked(t, h, tap, ClientConfig{HeartbeatEvery: time.Hour})

	// A backlog the daemon never saw: the resume has all of it to retransmit.
	const backlog = 1000
	sendN(t, c, backlog)

	stop := make(chan struct{})
	produced := make(chan int)
	go func() {
		n := 0
		defer func() { produced <- n }()
		for {
			select {
			case <-stop:
				return
			case <-kick:
			}
			for i := 0; i < 5; i++ {
				if err := c.Send(counterInc); err != nil {
					t.Errorf("send during resume: %v", err)
					return
				}
				checkRing(t, c)
				n++
			}
		}
	}()

	tap.sever(0)
	waitFor(t, 10*time.Second, "backlog retransmitted", func() bool {
		return h.connRow(c.PID()).ForwardedSeq >= backlog
	})
	close(stop)
	extra := <-produced
	if extra == 0 {
		t.Fatal("the producer never sent: the test exercised nothing")
	}

	gateThrough(t, c, c, 3)
	if killed, reason := h.killReason(c.PID()); killed {
		t.Fatalf("clean process killed across a resume: %s", reason)
	}
	c.Close()
	for conn := 0; conn < 2; conn++ {
		var last uint64
		for _, seq := range dataSeqs(t, tap.written(conn)) {
			if seq <= last {
				t.Fatalf("connection %d: Seq %d on the wire after Seq %d", conn, seq, last)
			}
			last = seq
		}
	}
	if got, want := h.procMessages(c.PID()), uint64(backlog+extra+1); got != want {
		t.Fatalf("verified %d messages, want %d", got, want)
	}
}

// TestWireBytesMatchPerFrameWriter is the differential check on the staged
// write path: for a seeded sealed stream with heartbeats and gates mixed in,
// the bytes the client puts on the wire are exactly those of a writer that
// encodes and writes one frame at a time. Only the write boundaries differ.
func TestWireBytesMatchPerFrameWriter(t *testing.T) {
	factory, err := policy.SetFactory("hmac", "counter")
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t,
		supervisor.Config{Policies: factory, KillOnViolation: true, Shards: 2},
		Config{Lease: 10 * time.Second})
	var tap wireTap
	// Heartbeats are issued by hand below, at seeded points in the stream.
	c := h.dial(t, ClientConfig{Tenant: 5, WrapConn: tap.wrap, HeartbeatEvery: time.Hour})
	if !c.keyed {
		t.Fatal("client not keyed under an hmac policy set")
	}

	var want bytes.Buffer
	ref := ipc.NewFrameWriter(&want) // only ever WriteMessage: one frame per write
	_ = ref.WriteMessage(ipc.Message{Op: ipc.OpHello, Arg1: WireVersion, Arg2: 5})
	refSender := pidStamper{pid: c.pid, s: ipc.SealSender(ipc.SenderFunc(ref.WriteMessage), c.key)}
	sender := c.Sender()
	send := func(m ipc.Message) {
		if err := sender.Send(m); err != nil {
			t.Fatalf("send: %v", err)
		}
		_ = refSender.Send(m)
	}

	rng := rand.New(rand.NewSource(13))
	const frames = 3000
	var hbOrd, gateOrd uint64
	for i := 0; i < frames; i++ {
		switch r := rng.Intn(100); {
		case r < 3:
			hbOrd++
			c.heartbeat()
			_ = ref.WriteMessage(ipc.Message{Op: ipc.OpHeartbeat, PID: c.pid, Arg1: hbOrd})
		case r < 6:
			gateOrd++
			sysNo := rng.Intn(300)
			send(ipc.Message{Op: ipc.OpSyscall, Arg1: uint64(sysNo)})
			if err := c.SyscallEnter(c.PID(), sysNo); err != nil {
				t.Fatalf("gate %d: %v (want pass)", gateOrd, err)
			}
			_ = ref.WriteMessage(ipc.Message{Op: ipc.OpGateEnter, PID: c.pid, Arg1: uint64(sysNo), Arg2: gateOrd})
		default:
			send(ipc.Message{Op: ipc.OpCounterInc, Arg1: rng.Uint64(), Arg2: rng.Uint64()})
		}
	}
	c.Close()
	_ = ref.WriteMessage(ipc.Message{Op: ipc.OpGoodbye, PID: c.pid})

	writes := tap.written(0)
	if got := bytes.Join(writes, nil); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("wire stream (%d bytes) differs from the per-frame writer's (%d bytes)", len(got), want.Len())
	}
	if len(writes)*4 > frames {
		t.Fatalf("%d writes for about %d frames: the stream was not staged", len(writes), frames)
	}
	if st := h.sys.Stats(); st.Killed != 0 {
		t.Fatalf("killed = %d, want 0 (sealed stream must authenticate)", st.Killed)
	}
}

// TestSmallReplayBufferFlushesBeforeBlocking: with a replay buffer smaller
// than the staging buffer, the frames that fill it are all still staged when
// Send has to wait for an ack, and acks only come for frames the daemon has
// seen. Send must write them out before it blocks; nothing else here would
// (no heartbeat, and the gates sit behind the data).
func TestSmallReplayBufferFlushesBeforeBlocking(t *testing.T) {
	h := newHarness(t,
		supervisor.Config{CheckSeq: true, KillOnViolation: true, Shards: 2},
		Config{Lease: 30 * time.Second})
	c := h.dial(t, ClientConfig{ReplaySlots: 8, HeartbeatEvery: time.Hour})
	defer c.Close()

	const n, gateEvery = 5000, 500
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= n; i++ {
			if err := c.Send(counterInc); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			if i%gateEvery == 0 {
				if err := c.Send(ipc.Message{Op: ipc.OpSyscall}); err != nil {
					t.Errorf("send syscall: %v", err)
					return
				}
				if err := c.SyscallEnter(c.PID(), 0); err != nil {
					t.Errorf("gate after %d: %v", i, err)
					return
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("stream stuck: Send blocked on a full replay buffer with its frames still staged")
	}
	if !c.Flush(10 * time.Second) {
		t.Fatal("flush timed out")
	}
	if got, want := h.procMessages(c.PID()), uint64(n+n/gateEvery); got != want {
		t.Fatalf("verified %d messages, want %d", got, want)
	}
}

// TestQuietSenderVerifiedWithinHeartbeatPeriod: a process that sends a few
// frames and then goes quiet without reaching a gate has them verified within
// one heartbeat period (Lease/4) — the tick flushes what is staged. The
// control client never heartbeats, and its frames stay staged.
func TestQuietSenderVerifiedWithinHeartbeatPeriod(t *testing.T) {
	const lease = 2 * time.Second
	h := newHarness(t,
		supervisor.Config{CheckSeq: true, KillOnViolation: true, Shards: 2},
		Config{Lease: lease})
	mute := h.dial(t, ClientConfig{HeartbeatEvery: time.Hour})
	defer mute.Close()
	c := h.dial(t, ClientConfig{}) // heartbeats every lease/4
	defer c.Close()

	start := time.Now()
	sendN(t, mute, 10)
	sendN(t, c, 10)
	waitFor(t, lease, "frames verified", func() bool { return h.procMessages(c.PID()) == 10 })
	// One period, plus slack for the tick to be scheduled and the verifier
	// to deliver on a loaded machine.
	if took := time.Since(start); took > lease/4+lease/8 {
		t.Fatalf("frames verified after %v, want within one heartbeat period (%v)", took, lease/4)
	}
	if got := h.procMessages(mute.PID()); got != 0 {
		t.Fatalf("%d frames of a client with no heartbeat, gate or flush were verified: something else flushes", got)
	}
}

// TestStreamingCoalescesWrites: a saturating stream costs at most one write
// per 64 data frames — every Write on the wrapped connection counted, so a
// burst that wraps the ring is two.
func TestStreamingCoalescesWrites(t *testing.T) {
	h := newHarness(t,
		supervisor.Config{CheckSeq: true, KillOnViolation: true, Shards: 2},
		Config{Lease: 10 * time.Second})
	var tap wireTap
	c := h.dial(t, ClientConfig{WrapConn: tap.wrap, HeartbeatEvery: time.Hour})
	defer c.Close()

	const frames = 100_000
	sendN(t, c, frames)
	if !c.Flush(10 * time.Second) {
		t.Fatal("flush timed out")
	}
	if writes := len(tap.written(0)) - 1; writes*64 > frames {
		t.Fatalf("%d writes for %d data frames, want at most one per 64", writes, frames)
	}
	// An ack means forwarded to the verifier, not yet verified.
	waitFor(t, 5*time.Second, "delivery", func() bool { return h.procMessages(c.PID()) == frames })
}

// TestResumeRetransmitsInFewWrites: a full replay ring (4096 frames the
// daemon never saw) goes out on the resumed connection straight from the
// ring, in at most 3 writes: the resume request and the ring's two halves.
func TestResumeRetransmitsInFewWrites(t *testing.T) {
	h := newHarness(t,
		supervisor.Config{CheckSeq: true, KillOnViolation: true, Shards: 2},
		Config{Lease: 10 * time.Second})
	tap := &wireTap{blackhole: func(conn int) bool { return conn == 0 }}
	c := h.dial(t, ClientConfig{WrapConn: tap.wrap, HeartbeatEvery: time.Hour})
	defer c.Close()

	const frames = 4096 // the default ReplaySlots: the last Send does not block
	sendN(t, c, frames)
	tap.sever(0)
	if !c.Flush(10 * time.Second) {
		t.Fatal("flush timed out: the replay buffer was not retransmitted")
	}
	if got := c.Resumes(); got != 1 {
		t.Fatalf("resumes = %d, want 1", got)
	}
	if writes := len(tap.written(1)); writes > 3 {
		t.Fatalf("%d writes to retransmit %d frames, want at most 3", writes, frames)
	}
	waitFor(t, 5*time.Second, "delivery", func() bool { return h.procMessages(c.PID()) == frames })
}

// ackingPeer is the least daemon a client can talk to: it grants one HELLO
// and then acks every burst it reads. It allocates nothing once its decoder's
// buffer has grown, so the process-wide allocation count of a test run
// against it is the client's.
func ackingPeer(t testing.TB) (network, addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { ln.Close(); <-done })
	go func() {
		defer close(done)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		dec, fw := ipc.NewFrameDecoder(nc), ipc.NewFrameWriter(nc)
		var burst [512]ipc.Message
		if n, _, _ := dec.Decode(burst[:1]); n != 1 || burst[0].Op != ipc.OpHello {
			t.Errorf("peer: first frame %+v, want OpHello", burst[0])
			return
		}
		const pid = 7
		_ = fw.WriteMessage(ipc.Message{Op: ipc.OpWelcome, PID: pid, Arg1: 1, Arg2: uint64(time.Minute)})
		var acked uint64
		for {
			n, ok, _ := dec.Decode(burst[:])
			fwd := acked
			for _, m := range burst[:n] {
				if !m.Op.IsSessionOp() {
					fwd = m.Seq
				}
			}
			if fwd != acked {
				acked = fwd
				_ = fw.WriteMessage(ipc.Message{Op: ipc.OpAck, PID: pid, Seq: acked})
			}
			if !ok {
				return
			}
		}
	}()
	return "tcp", ln.Addr().String()
}

// TestClientSendSteadyStateZeroAlloc: Send, the burst flush (one writev
// through the client's reused net.Buffers), the flush-before-block path, the
// ack and trim allocate nothing. The ring is a quarter of a run, so every run
// fills it, blocks and is trimmed many times over.
func TestClientSendSteadyStateZeroAlloc(t *testing.T) {
	network, addr := ackingPeer(t)
	c, err := Dial(context.Background(), ClientConfig{Network: network, Addr: addr, ReplaySlots: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var failed bool
	run := func() {
		for i := 0; i < 2048; i++ {
			if c.Send(counterInc) != nil {
				failed = true
			}
		}
		// Client.Flush would do, but its deadline timer is an allocation of
		// Flush's, not of the data path measured here.
		c.flush(nil)
		c.mu.Lock()
		for c.head != c.tail && !c.dead {
			c.cond.Wait()
		}
		c.mu.Unlock()
	}
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("%v allocations per run of 2048 sends, want 0", n)
	}
	if failed {
		t.Fatal("a send failed")
	}
}

// BenchmarkClientSend measures the client's data path end to end against an
// in-process daemon: a sealed stream through Client.Sender() over a Unix
// socket into the hmac+counter chain, all of it acked before the clock stops.
func BenchmarkClientSend(b *testing.B) {
	factory, err := policy.SetFactory("hmac", "counter")
	if err != nil {
		b.Fatal(err)
	}
	h := newHarness(b,
		supervisor.Config{Policies: factory, KillOnViolation: true, Shards: 2},
		Config{Lease: 10 * time.Second})
	sock := filepath.Join(b.TempDir(), "hqd.sock")
	if _, err := h.srv.Listen("unix", sock); err != nil {
		b.Fatal(err)
	}
	c, err := Dial(context.Background(), ClientConfig{Network: "unix", Addr: sock})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	sender := c.Sender()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sender.Send(counterInc); err != nil {
			b.Fatal(err)
		}
	}
	if !c.Flush(time.Minute) {
		b.Fatal("flush timed out")
	}
	b.StopTimer()
	if killed, reason := c.Killed(); killed {
		b.Fatalf("killed: %s", reason)
	}
}
