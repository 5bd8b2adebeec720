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

// ClientConfig parameterizes a Client.
type ClientConfig struct {
	// Network and Addr name the daemon ("tcp", "127.0.0.1:9411" or "unix",
	// "/run/hqd.sock").
	Network, Addr string

	// Tenant identifies the client for per-tenant admission quotas.
	Tenant uint64

	// DialTimeout bounds one connection attempt (<= 0 selects 2s).
	DialTimeout time.Duration

	// ResumeAttempts bounds reconnection tries per outage (<= 0 selects 8).
	// Exhausting them declares the session dead; the daemon's lease has
	// long since disposed of the process by then.
	ResumeAttempts int

	// ReplaySlots bounds the unacked-frame replay buffer (<= 0 selects
	// 4096). A full buffer blocks Send — bounded memory, backpressure up
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
	nextSeq uint64   // highest data Seq admitted to the ring
	acked   uint64   // highest Seq the daemon has acked; never above nextSeq
	resumes uint64

	// The replay ring, which is also what write(2) reads from: ReplaySlots
	// wire-format frames and three frame counts. [head, sent) is written and
	// unacked, [sent, tail) admitted and unwritten. head never passes sent and
	// Send writes only tail's slot, so no byte a Write is reading changes.
	ring             []byte
	head, sent, tail uint64
	tailOff          int // byte offset of tail's slot: Send does not divide

	hbOrd   uint64
	dead    bool
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

// clientJitter seeds the resume backoff's splitmix64 stream.
var clientJitter atomic.Uint64

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
	x := clientJitter.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return 1 + time.Duration(x%uint64(ceil))
}

// Dial connects, performs the HELLO admission handshake, and starts the
// session loops. ctx governs the whole session: canceling it interrupts any
// backoff sleep and fails pending gates.
func Dial(ctx context.Context, cfg ClientConfig) (*Client, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.ResumeAttempts <= 0 {
		cfg.ResumeAttempts = 8
	}
	if cfg.ReplaySlots <= 0 {
		cfg.ReplaySlots = 4096
	}
	c := &Client{cfg: cfg, ring: make([]byte, cfg.ReplaySlots*ipc.MessageSize), gateCh: make(chan error, 1)}
	c.cond = sync.NewCond(&c.mu)
	c.ctx, c.cancel = context.WithCancel(ctx)

	hello := ipc.Message{Op: ipc.OpHello, Arg1: WireVersion, Arg2: cfg.Tenant}
	nc, dec, welcome, err := c.handshake(hello)
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
	}
	c.conn, c.gen = nc, 1
	c.wg.Add(2)
	go c.recvLoop(nc, dec, 1)
	go c.heartbeatLoop()
	return c, nil
}

// handshake dials and exchanges exactly one request/welcome pair.
func (c *Client) handshake(req ipc.Message) (net.Conn, *ipc.FrameDecoder, ipc.Message, error) {
	d := net.Dialer{Timeout: c.cfg.DialTimeout}
	nc, err := d.DialContext(c.ctx, c.cfg.Network, c.cfg.Addr)
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

// pidStamper fixes the process identity onto every frame before it reaches
// the sealer: the MAC covers the PID field, so it must be final at seal time
// (Client.Send's own stamp would come one layer too late and break the tag).
type pidStamper struct {
	pid int32
	s   ipc.Sender
}

func (p pidStamper) Send(m ipc.Message) error {
	m.PID = p.pid
	return p.s.Send(m)
}

func (p pidStamper) Close() error { return p.s.Close() }

// Sender returns the ipc.Sender the monitored program should emit through:
// sealed under the session key when the daemon runs an authenticated policy
// set (ipc.SealSender over the untrusted transport — the channel it was
// built for), raw otherwise.
func (c *Client) Sender() ipc.Sender {
	if c.keyed {
		return pidStamper{pid: c.pid, s: ipc.SealSender(c, c.key)}
	}
	return c
}

// Killed reports whether the daemon has positively told us the process was
// killed (kill notice or gate verdict) — the vm.Config.Killed hook.
func (c *Client) Killed() (bool, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.killed, c.killRsn
}

// burstFrames is how many unwritten frames Send lets pile up before it writes
// them out, and what the daemon stages per read: just under 16 KiB.
// Throughput is flat from a quarter to four times it: no setting.
const burstFrames = 341

// Send implements ipc.Sender. The frame is encoded into the ring's next free
// slot (blocking while the ring is full — backpressure, not unbounded
// queueing): one lock round, one copy, no system call, no allocation. Frames
// reach the wire when burstFrames of them are unwritten, with the next gate
// request or heartbeat, before Send blocks, and on Flush/Close; a failed
// write or a severed transport loses none, the resume rewinds the write
// cursor. Send only fails once the session is dead, and then terminally.
func (c *Client) Send(m ipc.Message) error {
	c.mu.Lock()
	for !c.dead && c.tail-c.head == uint64(c.cfg.ReplaySlots) {
		// Acks only come for frames the daemon has seen, and the frames
		// filling the ring may all be unwritten still: write them out before
		// waiting (never under c.mu — see flush), then look again.
		c.mu.Unlock()
		c.flush(nil)
		c.mu.Lock()
		if !c.dead && c.tail-c.head == uint64(c.cfg.ReplaySlots) {
			c.cond.Wait()
		}
	}
	if c.dead {
		reason := c.deadErr
		c.mu.Unlock()
		return fmt.Errorf("hqnet: session dead: %s", reason)
	}
	if m.Seq == 0 {
		// Raw (unsealed) mode: the client assigns the stream position, like
		// a local channel backend would. Sealed mode arrives with Seq (and
		// Mac) already bound by ipc.SealSender.
		c.nextSeq++
		m.Seq = c.nextSeq
	} else if m.Seq > c.nextSeq {
		c.nextSeq = m.Seq
	}
	m.PID = c.pid
	m.Encode(c.ring[c.tailOff : c.tailOff+ipc.MessageSize : c.tailOff+ipc.MessageSize])
	if c.tailOff += ipc.MessageSize; c.tailOff == len(c.ring) {
		c.tailOff = 0
	}
	c.tail++
	// One Send sees the count reach a burst; the others keep appending.
	burst := c.tail-c.sent == burstFrames
	c.mu.Unlock()
	if burst {
		c.flush(nil)
	}
	return nil
}

// off is the ring byte offset of frame count n's slot.
func (c *Client) off(n uint64) int {
	return int(n%uint64(c.cfg.ReplaySlots)) * ipc.MessageSize
}

// flush writes the unwritten frames out of the ring, and ctrl (a gate request,
// heartbeat or goodbye) behind them: one writev on a bare socket, consecutive
// Writes on a wrapped one. Callers must not hold c.mu: recvLoop's trim takes
// it, and the daemon writes acks from the goroutine that reads our frames, so
// holding c.mu across a write(2) would close a cycle.
func (c *Client) flush(ctrl *ipc.Message) {
	c.wmu.Lock()
	c.flushLocked(ctrl)
	c.wmu.Unlock()
}

// flushLocked is flush for a holder of c.wmu. It reports false when nothing
// was written: no live connection, or a failed write, which closes the
// connection so that its recvLoop starts the resume.
func (c *Client) flushLocked(ctrl *ipc.Message) bool {
	c.mu.Lock()
	nc, from, to := c.conn, c.sent, c.tail
	c.mu.Unlock()
	if nc == nil {
		return false
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
		c.sent = to
		c.release() // acks that outran the write's return apply now
		c.mu.Unlock()
	}
	return true
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
	if c.dead {
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
	for c.head != c.tail && !c.dead && !expired {
		c.cond.Wait()
	}
	return c.head == c.tail
}

// Close ends the session cleanly: flush (bounded by one lease), goodbye,
// teardown. Safe to call on a dead session. Implements ipc.Sender's Close.
func (c *Client) Close() error {
	lease := c.lease
	if lease <= 0 {
		lease = time.Second
	}
	c.Flush(lease)
	if c.markDead("hqnet: client closed") {
		c.flush(&ipc.Message{Op: ipc.OpGoodbye, PID: c.pid})
	}
	c.teardown()
	c.cancel()
	c.wg.Wait()
	return nil
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
	if c.dead {
		return false
	}
	c.dead, c.deadErr = true, reason
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
	if c.dead {
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
	if ack = min(ack, c.nextSeq); ack > c.acked {
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
	head := c.head
	for off := c.off(head); head < c.sent && ipc.FrameSeq(c.ring[off:]) <= c.acked; head++ {
		if off += ipc.MessageSize; off == len(c.ring) {
			off = 0
		}
	}
	if head != c.head {
		c.head = head
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
	if c.dead || c.gen != gen {
		c.mu.Unlock()
		return // session over, or a resume already replaced this transport
	}
	c.conn = nil
	c.mu.Unlock()
	nc.Close()

	resume := ipc.Message{Op: ipc.OpResume, PID: c.pid, Arg1: c.token, Arg2: c.cfg.Tenant}
	for attempt := 1; attempt <= c.cfg.ResumeAttempts; attempt++ {
		select {
		case <-c.ctx.Done():
			c.die("hqnet: client closed")
			return
		case <-time.After(resumeBackoff(attempt)):
		}
		nc2, dec2, welcome, err := c.handshake(resume)
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
	if c.dead {
		c.mu.Unlock()
		nc.Close()
		return 0, false
	}
	c.gen++
	gen := c.gen
	c.conn = nc // die and Close can now cut a blocked retransmission short
	c.acked = max(c.acked, min(ack, c.nextSeq))
	c.release()
	c.sent = c.head
	c.resumes++
	// No recvLoop reads acks yet, so the senders run out of ring and this
	// ends; a write that fails leaves the rest to the next resume.
	for ok := true; ok && !c.dead && c.sent != c.tail; {
		c.mu.Unlock()
		ok = c.flushLocked(nil)
		c.mu.Lock()
	}
	if c.dead {
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
	_ vm.Gate    = (*Client)(nil)
)
