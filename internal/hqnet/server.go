package hqnet

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/obs"
	"herqules/internal/supervisor"
	"herqules/internal/telemetry"
)

// Config parameterizes a Server. The zero value (plus a System) is usable:
// 1s leases, 256 sessions, no per-tenant quota.
type Config struct {
	// Sys is the resident enforcement domain the daemon serves. Required.
	Sys *supervisor.System

	// Lease is how long a session may go without any frame arriving before
	// its process is killed fail-closed (kernel.ReasonLeaseExpired).
	// Clients heartbeat at Lease/4. <= 0 selects 1s.
	Lease time.Duration

	// MaxSessions caps concurrently admitted sessions across all tenants
	// (<= 0 selects 256); admission past the cap is rejected (RejectQuota),
	// never queued.
	MaxSessions int

	// TenantQuota caps concurrently admitted sessions per tenant id. <= 0
	// means no per-tenant cap.
	TenantQuota int

	// Metrics is unread: the connection-plane counters (hqnet.sessions.*,
	// hqnet.lease.expired, hqnet.conn.severed) count into Sys.Metrics(). Kept
	// only for the frozen bench/; delete when ROADMAP item 3 thaws it.
	Metrics *telemetry.Metrics
}

// Server hosts sessions over any set of stream listeners. One Server serves
// many listeners (TCP and Unix-domain concurrently); all sessions share the
// one supervisor.System.
type Server struct {
	cfg   Config
	sys   *supervisor.System
	lease time.Duration

	mu        sync.Mutex
	listeners []net.Listener
	sessions  map[uint64]*session // by token; present until ended
	tenants   map[uint64]int      // tenant id -> admitted session count
	draining  bool
	closed    bool

	wg   sync.WaitGroup // accept loops, handshakes, gate waiters, session finalizers, lease scanner and expiries
	stop chan struct{}

	admitted   *telemetry.Counter
	resumed    *telemetry.Counter
	rejected   *telemetry.Counter
	severed    *telemetry.Counter
	leaseKills *telemetry.Counter
}

// NewServer constructs a Server over cfg.Sys and starts its lease scanner.
// Call Serve (or Listen) per listener, and Shutdown to stop.
func NewServer(cfg Config) *Server {
	if cfg.Sys == nil {
		panic("hqnet: Config.Sys is required")
	}
	if cfg.Lease <= 0 {
		cfg.Lease = time.Second
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 256
	}
	m := cfg.Sys.Metrics()
	s := &Server{
		cfg:        cfg,
		sys:        cfg.Sys,
		lease:      cfg.Lease,
		sessions:   make(map[uint64]*session),
		tenants:    make(map[uint64]int),
		stop:       make(chan struct{}),
		admitted:   m.Counter("hqnet.sessions.admitted"),
		resumed:    m.Counter("hqnet.sessions.resumed"),
		rejected:   m.Counter("hqnet.sessions.rejected"),
		severed:    m.Counter("hqnet.conn.severed"),
		leaseKills: m.Counter("hqnet.lease.expired"),
	}
	s.wg.Add(1)
	go s.leaseScanner()
	return s
}

// nextToken returns a fresh session token from crypto/rand. A token and its
// PID resume a session, taking over even a live one, so no token may say
// anything about another: a counter through a bijective mixer would let a
// client invert its own token and step to its neighbour's.
func nextToken() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Without entropy every token is forgeable: refuse to run.
		panic("hqnet: session token entropy unavailable: " + err.Error())
	}
	if x := binary.LittleEndian.Uint64(b[:]); x != 0 {
		return x
	}
	return 1
}

// Listen opens a listener on network/addr ("tcp", "127.0.0.1:9411" or
// "unix", "/run/hqd.sock") and serves it in the background.
func (s *Server) Listen(network, addr string) (net.Listener, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	s.Serve(ln)
	return ln, nil
}

// Serve adopts ln: accepted connections are served in the background until
// Shutdown closes the listener. Serve itself returns immediately.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed by Shutdown
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(c)
			}()
		}
	}()
}

// handshakeTimeout bounds how long a fresh connection may sit without a
// well-formed HELLO/RESUME before it is dropped: pre-admission sockets must
// not be an unbounded resource.
const handshakeTimeout = 5 * time.Second

// serveConn runs one connection's handshake and hands the transport to its
// session; from then on the session's drain goroutine reads it. A connection
// that fails the handshake is closed with nothing admitted.
func (s *Server) serveConn(c net.Conn) {
	_ = c.SetReadDeadline(time.Now().Add(handshakeTimeout))
	dec := ipc.NewFrameDecoder(c)
	var first [1]ipc.Message
	n, _, err := dec.Decode(first[:])
	if n != 1 || err != nil {
		c.Close()
		return
	}
	_ = c.SetReadDeadline(time.Time{})
	fw := ipc.NewFrameWriter(c)

	switch first[0].Op {
	case ipc.OpHello:
		s.admit(c, fw, dec, first[0])
	case ipc.OpResume:
		s.resume(c, fw, dec, first[0])
	default:
		// Not a handshake: no session exists, so refusal costs nothing and
		// kills nothing.
		_ = fw.WriteMessage(ipc.Message{Op: ipc.OpReject, Arg1: RejectProtocol})
		c.Close()
	}
}

// reject refuses a handshake and closes the connection.
func (s *Server) reject(c net.Conn, fw *ipc.FrameWriter, code uint64) {
	s.rejected.Inc()
	_ = fw.WriteMessage(ipc.Message{Op: ipc.OpReject, Arg1: code})
	c.Close()
}

// admit serves an OpHello: quota and version checks, kernel registration via
// supervisor.Admit (the session is the receiver the pump drains), key
// delivery under an authenticated policy set, then the connection is
// attached and the parked drain starts reading it.
func (s *Server) admit(c net.Conn, fw *ipc.FrameWriter, dec *ipc.FrameDecoder, hello ipc.Message) {
	if hello.Arg1 != WireVersion {
		s.reject(c, fw, RejectVersion)
		return
	}
	tenant := hello.Arg2

	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		s.reject(c, fw, RejectDraining)
		return
	}
	if len(s.sessions) >= s.cfg.MaxSessions ||
		(s.cfg.TenantQuota > 0 && s.tenants[tenant] >= s.cfg.TenantQuota) {
		s.mu.Unlock()
		s.reject(c, fw, RejectQuota)
		return
	}
	// Reserve the quota slot before the (lock-free) kernel registration so
	// concurrent HELLOs cannot overshoot the cap.
	s.tenants[tenant]++
	s.mu.Unlock()

	// The session must exist before Admit: Admit starts the drain goroutine
	// on it, which parks in RecvBatch until the attach below.
	sess := newSession(s, tenant)
	proc, err := s.sys.Admit(sess)
	if err != nil {
		s.mu.Lock()
		s.tenants[tenant]--
		s.mu.Unlock()
		s.reject(c, fw, RejectDraining)
		return
	}
	sess.pid, sess.proc = proc.PID(), proc

	s.mu.Lock()
	if s.draining || s.closed {
		// Shutdown raced the admission: unwind completely.
		s.tenants[tenant]--
		s.mu.Unlock()
		sess.end()
		s.reject(c, fw, RejectDraining)
		return
	}
	s.sessions[sess.token] = sess
	s.mu.Unlock()
	s.admitted.Inc()

	welcome := ipc.Message{
		Op:   ipc.OpWelcome,
		PID:  sess.pid,
		Arg1: sess.token,
		Arg2: uint64(s.lease),
	}
	key, keyed := proc.Key()
	if keyed {
		welcome.Arg3 |= WelcomeKeyed
	}
	s.sys.Verifier().StampFlightEvent(sess.pid, telemetry.FlightLeaseGranted, uint64(s.lease))
	if err := fw.WriteMessage(welcome); err != nil {
		sess.sever(c)
		return
	}
	if keyed {
		// The session is the kernel→process key provisioning path the local
		// plane performs in-memory (policy.Keyring.Program at Register).
		if err := fw.WriteMessage(ipc.Message{Op: ipc.OpSessionKey, PID: sess.pid, Arg1: key.K0, Arg2: key.K1}); err != nil {
			sess.sever(c)
			return
		}
	}
	sess.attach(c, fw, dec, 0)
}

// resume serves an OpResume: token lookup, then welcome-with-ack so the
// client replays exactly the frames the daemon never forwarded.
func (s *Server) resume(c net.Conn, fw *ipc.FrameWriter, dec *ipc.FrameDecoder, req ipc.Message) {
	s.mu.Lock()
	sess := s.sessions[req.Arg1]
	s.mu.Unlock()
	if sess == nil || sess.pid != req.PID {
		// Stale or forged: nothing resumes. If the token once named a live
		// session, that session's lease is still ticking and will dispose
		// of its process.
		s.reject(c, fw, RejectUnknownSession)
		return
	}
	sess.mu.Lock()
	if sess.ended {
		sess.mu.Unlock()
		s.reject(c, fw, RejectUnknownSession)
		return
	}
	fwd := sess.fwd.Load()
	sess.resumes++
	resumes := sess.resumes
	sess.mu.Unlock()

	s.resumed.Inc()
	sess.touch()
	s.sys.Verifier().StampFlightEvent(sess.pid, telemetry.FlightLeaseRenewed, resumes)
	welcome := ipc.Message{
		Op:   ipc.OpWelcome,
		PID:  sess.pid,
		Arg1: sess.token,
		Arg2: uint64(s.lease),
		Seq:  fwd, // cumulative ack: replay starts at fwd+1
	}
	if err := fw.WriteMessage(welcome); err != nil {
		c.Close()
		return
	}
	sess.attach(c, fw, dec, resumes)
}

// leaseScanner kills processes whose sessions have gone silent past the
// lease. It is the only place a connection-plane failure becomes a kill, so
// every death it deals is attributable: reason kernel.ReasonLeaseExpired,
// FlightLeaseExpired stamped with the overshoot. The scanner only claims an
// expiry — once per session — and hands it to a goroutine of its own: the
// stamp, the kill notice and the session's end all wait on the process's
// verifier context, and a context wedged under its lock must not hold up
// any other session's lease.
func (s *Server) leaseScanner() {
	defer s.wg.Done()
	tick := s.lease / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		now := time.Now().UnixNano()
		s.mu.Lock()
		for _, sess := range s.sessions {
			overdue := time.Duration(now - sess.lastRecv.Load() - int64(s.lease))
			if overdue > 0 && sess.expired.CompareAndSwap(false, true) {
				// The scanner still holds its own slot, so this Add cannot
				// race Shutdown's Wait.
				s.wg.Add(1)
				go s.expireLease(sess, overdue)
			}
		}
		s.mu.Unlock()
	}
}

// expireLease kills sess's process fail-closed and ends the session.
func (s *Server) expireLease(sess *session, overdue time.Duration) {
	defer s.wg.Done()
	sess.mu.Lock()
	if sess.ended {
		sess.mu.Unlock()
		return
	}
	sess.mu.Unlock()
	s.leaseKills.Inc()
	s.sys.Kernel().ExpireLease(sess.pid, overdue)
	sess.end()
}

// Shutdown drains the daemon: listeners close (no new connections),
// admission flips to rejecting, and existing sessions get until ctx's
// deadline to finish (OpGoodbye or lease expiry). Sessions still alive at
// the deadline are ended; the underlying System is then shut down, which
// drains every source and freezes outstanding forensics.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.draining = true
	s.closed = true
	lns := s.listeners
	s.listeners = nil
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}

	// Grace: wait for sessions to end on their own terms, but reserve a
	// slice of the ctx budget for the System shutdown behind us — a client
	// that keeps heartbeating through the drain must not consume the whole
	// deadline and leave the verifier flush with an already-expired context.
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline {
		margin := time.Until(deadline) / 5
		if margin < 250*time.Millisecond {
			margin = 250 * time.Millisecond
		}
		deadline = deadline.Add(-margin)
	}
	for _, sess := range sessions {
		if !hasDeadline {
			<-sess.done()
			continue
		}
		select {
		case <-sess.done():
		case <-time.After(time.Until(deadline)):
		}
	}
	// Force whatever remains. end() is idempotent.
	for _, sess := range sessions {
		sess.end()
	}
	close(s.stop)
	s.wg.Wait()
	return s.sys.Shutdown(ctx)
}

// removeSession drops an ended session from the tables.
func (s *Server) removeSession(sess *session) {
	s.mu.Lock()
	if _, ok := s.sessions[sess.token]; ok {
		delete(s.sessions, sess.token)
		if s.tenants[sess.tenant] > 0 {
			s.tenants[sess.tenant]--
		}
	}
	s.mu.Unlock()
}

// Sessions reports the number of live sessions.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Conns implements obs.ConnReporter: one row per live session for the
// /metrics per-connection gauges and the /conns listing.
func (s *Server) Conns() []obs.ConnRow {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	rows := make([]obs.ConnRow, 0, len(sessions))
	for _, sess := range sessions {
		sess.mu.Lock()
		row := obs.ConnRow{
			PID:               sess.pid,
			Tenant:            sess.tenant,
			Connected:         sess.conn != nil,
			Resumes:           sess.resumes,
			ForwardedSeq:      sess.fwd.Load(),
			LastRecvUnixNanos: sess.lastRecv.Load(),
			LeaseNanos:        int64(s.lease),
		}
		sess.mu.Unlock()
		rows = append(rows, row)
	}
	return rows
}

var _ obs.ConnReporter = (*Server)(nil)

// Stats/Health/Forensics passthroughs so a Server can stand directly behind
// obs.NewServer as the obs.System.
func (s *Server) Stats() supervisor.Stats                               { return s.sys.Stats() }
func (s *Server) Health() supervisor.Health                             { return s.sys.Health() }
func (s *Server) Forensics(pid int32) (supervisor.ForensicReport, bool) { return s.sys.Forensics(pid) }
func (s *Server) AllForensics() []supervisor.ForensicReport             { return s.sys.AllForensics() }

var _ obs.System = (*Server)(nil)

// String summarizes the server state for logs.
func (s *Server) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("hqnet.Server{sessions=%d draining=%t}", len(s.sessions), s.draining)
}
