package hqnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/vm"
)

const (
	// dialTimeout bounds one connection attempt.
	dialTimeout = 2 * time.Second

	// resumeAttempts bounds reconnection tries per outage. Exhausting them
	// declares the session dead; the daemon's lease has long since disposed
	// of the process by then.
	resumeAttempts = 8
)

// ClientConfig parameterizes a Client.
type ClientConfig struct {
	// Network and Addr name the daemon ("tcp", "127.0.0.1:9411" or "unix",
	// "/run/hqd.sock").
	Network, Addr string

	// Tenant identifies the client for per-tenant admission quotas.
	Tenant uint64

	// ReplaySlots bounds the unacked-frame replay buffer (<= 0 selects
	// three bursts: one being written, one on the wire, one awaiting its
	// ack). A full buffer blocks Send — bounded memory, backpressure up
	// into the monitored program, exactly like a full local channel.
	ReplaySlots int

	// HeartbeatEvery overrides the lease-renewal cadence (0 selects a
	// quarter of the daemon-granted lease).
	HeartbeatEvery time.Duration

	// WrapConn, when non-nil, wraps every dialed connection — the chaos
	// plane's hook for injecting connection-level faults.
	WrapConn func(net.Conn) net.Conn
}

// RejectedError is a daemon refusal (admission or resume): terminal, never
// retried.
type RejectedError struct{ Code uint64 }

func (e *RejectedError) Error() string { return "hqnet: rejected: " + RejectText(e.Code) }

// Client is the monitored-program side of a session: an ipc.Sender whose
// frames survive transport loss (replay-from-last-ack on resume), a vm.Gate
// that runs bounded asynchronous validation on the daemon, and a heartbeat
// loop that keeps the process's lease alive. A Client whose transport dies
// reconnects with bounded, jittered, context-cancellable backoff; a Client
// that cannot get back in declares itself dead and every subsequent Send and
// gate fails — the local mirror of the daemon's fail-closed lease kill.
//
// Like every ipc.Sender, a Client has one producer: Send, and the Send of
// Sender(), are called from one goroutine at a time. SyscallEnter, Flush,
// Close and the Client's own heartbeat and receive loops may run
// concurrently with it.
type Client struct {
	cfg    ClientConfig
	ctx    context.Context
	cancel context.CancelFunc

	pid   int32
	token uint64
	lease time.Duration
	key   ipc.MacKey
	keyed bool

	// wmu serialises writers: its holder owns ctrl, iov and bufs and is alone
	// inside a Write. Taken before mu, and never by a Send that does not flush.
	wmu  sync.Mutex
	ctrl [ipc.MessageSize]byte // the control frame riding behind the data
	iov  [3][]byte             // backs bufs: at most two ring slices and ctrl
	bufs net.Buffers

	mu      sync.Mutex
	cond    *sync.Cond
	conn    net.Conn // nil while severed
	gen     uint64   // connection generation; stale recvLoops detect takeover
	acked   uint64   // highest Seq the daemon has acked; never above nextSeq
	resumes uint64

	// The replay ring, which is also what write(2) reads from: ReplaySlots
	// wire-format frames and three frame counts. [head, sent) is written and
	// unacked, [sent, tail) admitted and unwritten. head never passes sent and
	// Send writes only tail's slot, so no byte a Write is reading changes.
	// The producer alone writes tail's slot and then publishes tail and
	// nextSeq with ipc.Publish; head and sent are stored under c.mu. Send
	// loads all of them without c.mu.
	ring       []byte
	head, sent atomic.Uint64
	tail       atomic.Uint64
	nextSeq    atomic.Uint64 // highest data Seq admitted to the ring
	tailOff    int           // the producer's: byte offset of tail's slot
	// sealed marks, per slot, a frame sent through Sender(): the flush that
	// writes it stamps its tag first. nil on a session without a key.
	sealed []bool

	hbOrd   uint64
	dead    atomic.Bool // stored under c.mu, with deadErr
	deadErr string
	killed  bool
	killRsn string

	// One gate outstanding at a time (the VM is single-threaded through
	// syscalls); whoever clears gatePending sends its verdict on gateCh.
	gateOrd     uint64
	gateSys     int
	gatePending bool
	gateCh      chan error

	wg sync.WaitGroup
}

// resumeBackoff is the reconnect ladder: full jitter under an exponential
// envelope (1ms base, 50ms cap) so a rack of clients severed by one network
// event does not re-dial in lockstep.
func resumeBackoff(attempt int) time.Duration {
	const base, cap = time.Millisecond, 50 * time.Millisecond
	if attempt < 1 {
		attempt = 1
	}
	ceil := base
	if attempt > 1 {
		if shift := uint(attempt - 1); shift >= 8 {
			ceil = cap
		} else if ceil = base << shift; ceil > cap {
			ceil = cap
		}
	}
	return ipc.Jitter(ceil)
}

// Dial connects, performs the HELLO admission handshake, and starts the
// session loops. ctx governs the whole session: canceling it interrupts any
// backoff sleep and fails pending gates.
func Dial(ctx context.Context, cfg ClientConfig) (*Client, error) {
	if cfg.ReplaySlots <= 0 {
		cfg.ReplaySlots = 3 * burstFrames
	}
	c := &Client{cfg: cfg, ring: make([]byte, cfg.ReplaySlots*ipc.MessageSize), gateCh: make(chan error, 1)}
	c.cond = sync.NewCond(&c.mu)
	c.ctx, c.cancel = context.WithCancel(ctx)

	hello := ipc.Message{Op: ipc.OpHello, Arg1: WireVersion, Arg2: cfg.Tenant}
	nc, dec, welcome, err := c.handshake(c.ctx, hello)
	if err != nil {
		c.cancel()
		return nil, err
	}
	c.pid = welcome.PID
	c.token = welcome.Arg1
	c.lease = time.Duration(welcome.Arg2)
	if welcome.Arg3&WelcomeKeyed != 0 {
		// The key frame is the session's trusted provisioning step; it
		// arrives immediately after the welcome, before any data flows.
		var one [1]ipc.Message
		n, _, err := dec.Decode(one[:])
		if n != 1 || err != nil || one[0].Op != ipc.OpSessionKey {
			nc.Close()
			c.cancel()
			return nil, fmt.Errorf("hqnet: key delivery failed")
		}
		c.key = ipc.MacKey{K0: one[0].Arg1, K1: one[0].Arg2}
		c.keyed = true
		c.sealed = make([]bool, cfg.ReplaySlots)
	}
	c.conn, c.gen = nc, 1
	c.wg.Add(2)
	go c.recvLoop(nc, dec, 1)
	go c.heartbeatLoop()
	return c, nil
}

// handshake dials and exchanges exactly one request/welcome pair.
func (c *Client) handshake(ctx context.Context, req ipc.Message) (net.Conn, *ipc.FrameDecoder, ipc.Message, error) {
	d := net.Dialer{Timeout: dialTimeout}
	nc, err := d.DialContext(ctx, c.cfg.Network, c.cfg.Addr)
	if err != nil {
		return nil, nil, ipc.Message{}, err
	}
	if c.cfg.WrapConn != nil {
		nc = c.cfg.WrapConn(nc)
	}
	var frame [ipc.MessageSize]byte
	req.Encode(frame[:])
	if _, err := nc.Write(frame[:]); err != nil {
		nc.Close()
		return nil, nil, ipc.Message{}, err
	}
	_ = nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	dec := ipc.NewFrameDecoder(nc)
	var one [1]ipc.Message
	n, _, err := dec.Decode(one[:])
	if n != 1 {
		nc.Close()
		if err == nil {
			err = errors.New("hqnet: connection closed during handshake")
		}
		return nil, nil, ipc.Message{}, err
	}
	switch one[0].Op {
	case ipc.OpWelcome:
	case ipc.OpReject:
		nc.Close()
		return nil, nil, ipc.Message{}, &RejectedError{Code: one[0].Arg1}
	default:
		nc.Close()
		return nil, nil, ipc.Message{}, fmt.Errorf("hqnet: unexpected handshake reply %v", one[0].Op)
	}
	_ = nc.SetReadDeadline(time.Time{})
	return nc, dec, one[0], nil
}

// PID is the kernel identity the daemon assigned at admission.
func (c *Client) PID() int32 { return c.pid }

// Lease is the daemon-granted heartbeat lease.
func (c *Client) Lease() time.Duration { return c.lease }

// Resumes reports how many times the session has been resumed.
func (c *Client) Resumes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumes
}

// Sender returns the ipc.Sender the monitored program should emit through:
// sealed under the session key when the daemon runs an authenticated policy
// set, raw otherwise. A sealed frame carries the tag ipc.SealSender would
// have put on it — over the PID and stream position the client stamps — but
// the tag is computed when the frame is written, eight frames a pass
// (ipc.SealFrames), not when it is sent. It shares the Client's one
// producer: Send on both from the same goroutine, never from two at once.
func (c *Client) Sender() ipc.Sender {
	if c.keyed {
		return (*sealingClient)(c)
	}
	return c
}

// sealingClient is the Client as Sender() hands it out on a keyed session:
// its frames are marked for sealing at flush.
type sealingClient Client

func (s *sealingClient) Send(m ipc.Message) error { return (*Client)(s).send(m, true) }

func (s *sealingClient) Close() error { return (*Client)(s).Close() }

// Killed reports whether the daemon has positively told us the process was
// killed (kill notice or gate verdict) — the vm.Config.Killed hook.
func (c *Client) Killed() (bool, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.killed, c.killRsn
}

// burstFrames paces the wire: Send writes the ring's unwritten frames out
// once this many have piled up, the daemon stages this many per read(2) and
// acks each read once, and the replay ring defaults to three of them. 2730
// frames (131 040 bytes) are the most whole frames in 128 KiB; against 341
// (16 KiB) they pay the writev, the daemon's read and wake-up, the ack and
// the client's trim an eighth as often (EXPERIMENTS.md "One burst sets the
// wire's pace"). No setting.
const burstFrames = 2730

// Send implements ipc.Sender. The frame is encoded into the ring's next free
// slot (blocking while the ring is full — backpressure, not unbounded
// queueing): one copy and one store of tail, no lock (but for the rewind of
// an empty ring), no system call, no allocation. Frames reach the wire when burstFrames of them are unwritten,
// with the next gate request or heartbeat, before Send blocks, and on
// Flush/Close; a failed write or a severed transport loses none, the resume
// rewinds the write cursor. Send only fails once the session is dead, and
// then terminally. Its frames go out as given, unsealed even on a keyed
// session: Sender() seals. Send must not be called from two goroutines at
// once (see Client).
func (c *Client) Send(m ipc.Message) error { return c.send(m, false) }

// send is Send, marking the frame for sealing at flush when seal is set.
// Only the producer writes tail's slot, tail and nextSeq, so it reads them
// without c.mu. head, sent and dead only move under c.mu: a stale head is a
// ring that looks fuller than it is, which waitRoom settles; a stale sent is
// a burst seen late, which the next flush writes; a stale dead admits one
// more frame to a dying session, as a Send just before the death would.
func (c *Client) send(m ipc.Message, seal bool) error {
	tail, head := c.tail.Load(), c.head.Load()
	if c.dead.Load() || tail-head == uint64(c.cfg.ReplaySlots) {
		if err := c.waitRoom(tail); err != nil {
			return err
		}
	} else if head == tail && c.tailOff != 0 {
		tail = c.rewind(tail)
	}
	seq := c.nextSeq.Load()
	if m.Seq == 0 || seal {
		// The client assigns the stream position, like a local channel
		// backend would; the tag binds it at flush.
		seq++
		m.Seq = seq
	} else if m.Seq > seq {
		// A raw frame with a position of its own (a test's gap, a caller's
		// own SealSender) goes out with it.
		seq = m.Seq
	}
	m.PID = c.pid
	m.Encode(c.ring[c.tailOff : c.tailOff+ipc.MessageSize : c.tailOff+ipc.MessageSize])
	if c.sealed != nil {
		c.sealed[c.tailOff/ipc.MessageSize] = seal
	}
	if c.tailOff += ipc.MessageSize; c.tailOff == len(c.ring) {
		c.tailOff = 0
	}
	// The slot, then tail: a flusher that loads tail sees the frame. Then
	// nextSeq: a Seq that trim's clamp lets an ack cover is in the ring.
	tail++
	ipc.Publish(&c.tail, tail)
	ipc.Publish(&c.nextSeq, seq)
	if tail-c.sent.Load() == burstFrames {
		c.flush(nil)
	}
	return nil
}

// waitRoom is Send's slow path, the one place it takes c.mu: it returns once
// the ring has a free slot past tail, or fails once the session is dead.
// release and teardown broadcast under c.mu, so no wake-up is lost.
func (c *Client) waitRoom(tail uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.dead.Load() && tail-c.head.Load() == uint64(c.cfg.ReplaySlots) {
		// Acks only come for frames the daemon has seen, and the frames
		// filling the ring may all be unwritten still: write them out before
		// waiting (never under c.mu — see flush), then look again.
		c.mu.Unlock()
		c.flush(nil)
		c.mu.Lock()
		if !c.dead.Load() && tail-c.head.Load() == uint64(c.cfg.ReplaySlots) {
			c.cond.Wait()
		}
	}
	if c.dead.Load() {
		return fmt.Errorf("hqnet: session dead: %s", c.deadErr)
	}
	return nil
}

// rewind restarts an empty ring at its first slot and returns the new tail:
// head, sent and tail all move to the next count whose slot is the first.
// A program whose every burst is acked before it sends the next (one gated
// request at a time) then writes the same few cache lines over and over
// instead of walking the whole ring, which three bursts make 384 KiB. The
// ring is empty only if head has caught up with tail, and then no frame is
// unwritten or in flight, so no flush or release is reading a slot; head and
// sent stay where they are until this producer's next frame, and they move
// under c.mu as everywhere else.
func (c *Client) rewind(tail uint64) uint64 {
	slots := uint64(c.cfg.ReplaySlots)
	next := (tail/slots + 1) * slots
	c.mu.Lock()
	c.head.Store(next)
	c.sent.Store(next)
	c.tail.Store(next)
	c.mu.Unlock()
	c.tailOff = 0
	return next
}

// off is the ring byte offset of frame count n's slot.
func (c *Client) off(n uint64) int {
	return int(n%uint64(c.cfg.ReplaySlots)) * ipc.MessageSize
}

// flush writes the unwritten frames out of the ring, and ctrl (a gate request,
// heartbeat or goodbye) behind them: one writev on a bare socket, consecutive
// Writes on a wrapped one. Callers must not hold c.mu: recvLoop's trim takes
// it, and the daemon writes acks from the goroutine that reads our frames, so
// holding c.mu across a write(2) would close a cycle. It reports what
// flushLocked does.
func (c *Client) flush(ctrl *ipc.Message) bool {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flushLocked(ctrl)
}

// flushLocked is flush for a holder of c.wmu. It reports false when nothing
// was written: no live connection, or a failed write, which closes the
// connection so that its recvLoop starts the resume. It is the only writer of
// ring frames, so every frame marked for sealing leaves sealed, the
// retransmissions of a resume included; sealing one again changes no byte.
func (c *Client) flushLocked(ctrl *ipc.Message) bool {
	c.mu.Lock()
	nc, from, to := c.conn, c.sent.Load(), c.tail.Load()
	c.mu.Unlock()
	if nc == nil {
		return false
	}
	if c.sealed != nil {
		c.seal(from, to)
	}
	c.bufs = c.iov[:0]
	if from != to {
		if lo, hi := c.off(from), c.off(to); lo < hi {
			c.bufs = append(c.bufs, c.ring[lo:hi])
		} else if c.bufs = append(c.bufs, c.ring[lo:]); hi > 0 {
			c.bufs = append(c.bufs, c.ring[:hi])
		}
	}
	if ctrl != nil {
		ctrl.Encode(c.ctrl[:])
		c.bufs = append(c.bufs, c.ctrl[:])
	}
	if _, err := c.bufs.WriteTo(nc); err != nil { // no buffers, no write
		nc.Close()
		return false
	}
	if from != to { // same connection still: a resume takes c.wmu first
		c.mu.Lock()
		c.sent.Store(to)
		c.release() // acks that outran the write's return apply now
		c.mu.Unlock()
	}
	return true
}

// seal stamps the tag on every marked frame in [from, to), a run of
// consecutive marked slots at a time. Send writes only tail's slot and the
// ring never wraps onto head, so no slot read or written here changes under
// it.
func (c *Client) seal(from, to uint64) {
	slots := uint64(c.cfg.ReplaySlots)
	for n := from; n < to; {
		i := int(n % slots)
		if !c.sealed[i] {
			n++
			continue
		}
		j := i
		for n < to && j < len(c.sealed) && c.sealed[j] {
			n, j = n+1, j+1
		}
		ipc.SealFrames(c.key, c.ring[i*ipc.MessageSize:j*ipc.MessageSize])
	}
}

// SyscallEnter implements vm.Gate: the gate request crosses the wire, the
// daemon's kernel runs bounded asynchronous validation, and the verdict
// comes back. The request rides in the same write as the frames admitted
// before it, which is all that bounded asynchronous validation needs: the
// verifier caught up by the next system call. A transport loss mid-gate is
// survivable: the request is retransmitted after resume and the daemon
// replays a verdict it already computed (gate ordinals make it idempotent).
// Registered under c.wmu, so a resume either sees the gate pending and
// retransmits it or finishes first: one request per connection.
func (c *Client) SyscallEnter(pid int32, syscallNo int) error {
	c.wmu.Lock()
	c.mu.Lock()
	if c.dead.Load() {
		reason := c.deadErr
		c.mu.Unlock()
		c.wmu.Unlock()
		return errors.New(reason)
	}
	c.gateOrd++
	c.gatePending, c.gateSys = true, syscallNo
	req := ipc.Message{Op: ipc.OpGateEnter, PID: c.pid, Arg1: uint64(syscallNo), Arg2: c.gateOrd}
	c.mu.Unlock()
	c.flushLocked(&req)
	c.wmu.Unlock()
	select {
	case err := <-c.gateCh:
		return err
	case <-c.ctx.Done():
		// Leave gateCh empty: take a verdict whose sender is on its way.
		c.mu.Lock()
		sent := !c.gatePending
		c.gatePending = false
		c.mu.Unlock()
		if sent {
			<-c.gateCh
		}
		return errors.New("hqnet: client closed")
	}
}

// Flush writes out the unwritten frames and waits until the daemon has acked
// every admitted frame, the session dies, or the timeout lapses. Close calls
// it so a clean goodbye does not race the last data frames.
func (c *Client) Flush(timeout time.Duration) bool {
	c.flush(nil)
	// trim and die broadcast on c.cond; the timer does it for the deadline.
	expired := false
	t := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		expired = true
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer t.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.head.Load() != c.tail.Load() && !c.dead.Load() && !expired {
		c.cond.Wait()
	}
	return c.head.Load() == c.tail.Load()
}

// Close ends the session cleanly: flush (bounded by one lease), goodbye,
// teardown. Safe to call on a dead session. Implements ipc.Sender's Close.
//
// A goodbye whose write fails is said again on a resumed connection, but
// only when the daemon acked every frame first: the process has exited and
// the daemon has validated all it sent, so without the goodbye the lease
// would kill a clean process. With frames unacked the lease kill stands —
// the daemon never validated the tail, and it must fail closed.
func (c *Client) Close() error {
	lease := c.lease
	if lease <= 0 {
		lease = time.Second
	}
	goodbye := ipc.Message{Op: ipc.OpGoodbye, PID: c.pid}
	acked := c.Flush(lease)
	lost := false
	if c.markDead("hqnet: client closed") {
		lost = !c.flush(&goodbye)
	}
	c.teardown()
	c.cancel()
	// The resend waits for recvLoop: a resume still in flight there must not
	// take the session's transport over after the goodbye's.
	c.wg.Wait()
	if lost && acked {
		c.resendGoodbye(goodbye)
	}
	return nil
}

// resendGoodbye presents the session token on a fresh connection and says
// goodbye there, up to resumeAttempts times on the reconnect ladder. A
// rejection ends it: the session is over, by the lost goodbye itself or by
// the lease.
func (c *Client) resendGoodbye(goodbye ipc.Message) {
	ctx := context.WithoutCancel(c.ctx) // c.ctx is canceled: the session is closed
	resume := ipc.Message{Op: ipc.OpResume, PID: c.pid, Arg1: c.token, Arg2: c.cfg.Tenant}
	var frame [ipc.MessageSize]byte
	goodbye.Encode(frame[:])
	for attempt := 1; attempt <= resumeAttempts; attempt++ {
		time.Sleep(resumeBackoff(attempt))
		nc, _, _, err := c.handshake(ctx, resume)
		var rej *RejectedError
		if errors.As(err, &rej) {
			return
		}
		if err != nil {
			continue
		}
		_, err = nc.Write(frame[:])
		nc.Close()
		if err == nil {
			return
		}
	}
}

// die marks the session terminally dead: sends fail, a pending gate fails
// (the VM then terminates as killed), Send waiters wake.
func (c *Client) die(reason string) {
	if c.markDead(reason) {
		c.teardown()
	}
}

// markDead reports whether this call killed the session; the connection
// stays up until teardown, for Close's goodbye.
func (c *Client) markDead(reason string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead.Load() {
		return false
	}
	c.deadErr = reason
	c.dead.Store(true)
	return true
}

// teardown closes a dead session's transport, fails its pending gate and
// wakes every waiter.
func (c *Client) teardown() {
	c.mu.Lock()
	conn, pending, reason := c.conn, c.gatePending, c.deadErr
	c.conn, c.gatePending = nil, false
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if pending {
		c.gateCh <- errors.New(reason)
	}
	c.cond.Broadcast()
}

// heartbeatLoop renews the lease at a quarter of its duration.
func (c *Client) heartbeatLoop() {
	defer c.wg.Done()
	every := c.cfg.HeartbeatEvery
	if every <= 0 {
		every = c.lease / 4
	}
	if every < time.Millisecond {
		every = time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
		}
		if !c.heartbeat() {
			return
		}
	}
}

// heartbeat sends one lease renewal, and with it every frame not yet written:
// the tick is what bounds how stale the daemon's view of a process can get
// when it goes quiet without reaching a gate. It reports false once the
// session is dead.
func (c *Client) heartbeat() bool {
	c.mu.Lock()
	if c.dead.Load() {
		c.mu.Unlock()
		return false
	}
	c.hbOrd++
	hb := ipc.Message{Op: ipc.OpHeartbeat, PID: c.pid, Arg1: c.hbOrd}
	c.mu.Unlock()
	c.flush(&hb)
	return true
}

// recvLoop drains one connection generation. When the transport dies it
// hands off to reconnect — unless a newer generation already took over or
// the session is done.
func (c *Client) recvLoop(nc net.Conn, dec *ipc.FrameDecoder, gen uint64) {
	defer c.wg.Done()
	var buf [16]ipc.Message
	for {
		n, ok, _ := dec.Decode(buf[:])
		for i := 0; i < n; i++ {
			c.handle(buf[i])
		}
		if !ok {
			break
		}
	}
	c.reconnect(nc, gen)
}

// handle processes one daemon frame.
func (c *Client) handle(m ipc.Message) {
	switch m.Op {
	case ipc.OpHeartbeatAck, ipc.OpAck:
		c.trim(m.Seq)
	case ipc.OpGateResult:
		c.trim(m.Seq)
		c.mu.Lock()
		if c.gatePending && m.Arg3 == c.gateOrd {
			c.gatePending = false
			var verdict error
			if m.Arg1 == GateKilled {
				reason := ReasonText(m.Arg2)
				c.killed, c.killRsn = true, reason
				verdict = errors.New(reason)
			}
			c.mu.Unlock()
			c.gateCh <- verdict
			return
		}
		c.mu.Unlock()
	case ipc.OpKillNotice:
		reason := ReasonText(m.Arg1)
		c.mu.Lock()
		c.killed, c.killRsn = true, reason
		c.mu.Unlock()
		c.die(reason)
	}
}

// trim records a cumulative ack and releases what it covers. The wire can
// lie: an ack past the highest Seq admitted counts for that Seq, no further.
func (c *Client) trim(ack uint64) {
	c.mu.Lock()
	if ack = min(ack, c.nextSeq.Load()); ack > c.acked {
		c.acked = ack
		c.release()
	}
	c.mu.Unlock()
}

// release advances head past every acked frame whose write has returned,
// waking Send and Flush waiters. It never passes sent: a frame unwritten, or
// being read by a write in flight, stays whatever the ack says, and flush
// calls again once sent has moved.
func (c *Client) release() {
	head, sent := c.head.Load(), c.sent.Load()
	for off := c.off(head); head < sent && ipc.FrameSeq(c.ring[off:]) <= c.acked; head++ {
		if off += ipc.MessageSize; off == len(c.ring) {
			off = 0
		}
	}
	if head != c.head.Load() {
		c.head.Store(head)
		c.cond.Broadcast()
	}
}

// reconnect re-establishes the session after generation gen's transport
// died: bounded attempts, full-jitter backoff, cancellable at every sleep.
// On welcome it retransmits every frame past the daemon's ack (CheckSeq stays
// gap-free) and a pending gate request. A rejection (stale session — the
// lease beat us to it) or an exhausted budget kills the client side
// terminally.
func (c *Client) reconnect(nc net.Conn, gen uint64) {
	c.mu.Lock()
	if c.dead.Load() || c.gen != gen {
		c.mu.Unlock()
		return // session over, or a resume already replaced this transport
	}
	c.conn = nil
	c.mu.Unlock()
	nc.Close()

	resume := ipc.Message{Op: ipc.OpResume, PID: c.pid, Arg1: c.token, Arg2: c.cfg.Tenant}
	for attempt := 1; attempt <= resumeAttempts; attempt++ {
		select {
		case <-c.ctx.Done():
			c.die("hqnet: client closed")
			return
		case <-time.After(resumeBackoff(attempt)):
		}
		nc2, dec2, welcome, err := c.handshake(c.ctx, resume)
		if err != nil {
			var rej *RejectedError
			if errors.As(err, &rej) {
				c.die(err.Error())
				return
			}
			continue // transient: next rung of the ladder
		}
		if gen2, ok := c.catchUp(nc2, welcome.Seq); ok {
			c.wg.Add(1)
			go c.recvLoop(nc2, dec2, gen2)
		}
		return
	}
	c.die("hqnet: resume attempts exhausted")
}

// catchUp makes nc the session's connection and rewinds the write cursor to
// the daemon's ack: everything past it goes out again, from the ring, in
// order. It holds c.wmu throughout, so a concurrent Send only appends behind
// the replayed frames and a heartbeat or gate waits its turn; a writer let in
// earlier could put a new frame ahead of them, the daemon would forward the
// jump and drop the older frames as overlap, and CheckSeq would kill a clean
// process by counter gap. It reports the new connection generation, or false
// if the session died meanwhile.
func (c *Client) catchUp(nc net.Conn, ack uint64) (uint64, bool) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	if c.dead.Load() {
		c.mu.Unlock()
		nc.Close()
		return 0, false
	}
	c.gen++
	gen := c.gen
	c.conn = nc // die and Close can now cut a blocked retransmission short
	c.acked = max(c.acked, min(ack, c.nextSeq.Load()))
	c.release()
	c.sent.Store(c.head.Load())
	c.resumes++
	// No recvLoop reads acks yet, so the producer runs out of ring and this
	// ends; a write that fails leaves the rest to the next resume.
	for ok := true; ok && !c.dead.Load() && c.sent.Load() != c.tail.Load(); {
		c.mu.Unlock()
		ok = c.flushLocked(nil)
		c.mu.Lock()
	}
	if c.dead.Load() {
		c.mu.Unlock()
		return 0, false // die or Close closes nc
	}
	var req *ipc.Message
	if c.gatePending {
		req = &ipc.Message{Op: ipc.OpGateEnter, PID: c.pid, Arg1: uint64(c.gateSys), Arg2: c.gateOrd}
	}
	c.mu.Unlock()
	c.flushLocked(req)
	return gen, true
}

var (
	_ ipc.Sender = (*Client)(nil)
	_ ipc.Sender = (*sealingClient)(nil)
	_ vm.Gate    = (*Client)(nil)
)
