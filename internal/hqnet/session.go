package hqnet

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/supervisor"
)

// session is one admitted remote process, and the ipc.Receiver the verifier
// pump drains for it: RecvBatch decodes frames from the live connection
// straight into the drain loop's burst buffer, on the session's drain
// goroutine, which then delivers them to the policies itself. It outlives
// any single connection: a severed transport leaves the session intact
// (awaiting resume, its drain parked) and only the lease — or a clean
// goodbye — ends it. Session end is the single teardown path: transport
// closed, pump drained, forensics frozen, kernel context exited, quota
// released.
//
// Reading on the drain goroutine is the admission-side backpressure story: a
// drain that is delivering is not reading, so a client outrunning the
// verifier backs up in the transport's own flow control (and then in its
// replay ring) while the daemon holds one client burst of it. If the
// verifier is wedged long enough, the stalled drain stops renewing the
// session's lease and the process dies fail-closed — the networked analogue
// of the epoch watchdog.
type session struct {
	srv    *Server
	token  uint64
	tenant uint64
	fin    chan struct{}

	// pid and proc are set once by Server.admit after sys.Admit(sess)
	// returns, before the session is published: the first attach publishes
	// them (under mu) to the drain goroutine, parked in RecvBatch until
	// then, and the sessions map (under srv.mu) to the lease scanner. The
	// drain reads only pid; proc is read only by finalize, which Closes it.
	pid  int32
	proc *supervisor.Proc

	// lastRecv is the lease clock: UnixNano of the last burst received on
	// any of the session's connections. Written by the drain goroutine, read
	// by the lease scanner.
	lastRecv atomic.Int64
	// expired is set, once, by the lease scanner that claims the session's
	// lease expiry.
	expired atomic.Bool
	// fwd is the highest data Seq forwarded to the verifier — the cumulative
	// ack: the client may drop every frame with Seq <= fwd from its replay
	// buffer. Written only by the drain goroutine, once per burst.
	fwd              atomic.Uint64
	acked            uint64       // the fwd the last ack or drain-written verdict carried; drain goroutine only
	pending          bool         // a gate filter registered for the next RecvBatch to answer;
	pendSys, pendOrd uint64       // drain goroutine only, as is pending
	waiters          atomic.Int32 // gates handed to a waiter goroutine, not yet answered

	mu      sync.Mutex
	cond    *sync.Cond        // signals attach and end to a parked drain
	conn    net.Conn          // live transport; nil while severed
	fw      *ipc.FrameWriter  // writer over conn; nil while severed
	dec     *ipc.FrameDecoder // reader over conn; nil while severed
	resumes uint64
	connOrd uint64 // which handshake conn came from: 0 the HELLO, n the nth resume
	ended   bool

	// Gate replay state: the client may retransmit a gate request after a
	// resume, and the daemon must neither run the gate twice nor lose a
	// verdict computed while the transport was down.
	gateOrd     uint64
	gateRunning bool
	gateDone    bool
	gateRes     ipc.Message
}

func newSession(srv *Server, tenant uint64) *session {
	s := &session{srv: srv, token: nextToken(), tenant: tenant, fin: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	s.touch()
	return s
}

func (s *session) done() <-chan struct{} { return s.fin }

// touch renews the lease clock.
func (s *session) touch() { s.lastRecv.Store(time.Now().UnixNano()) }

// attach installs a (new) transport from handshake ord, closing any previous
// one, and wakes the drain goroutine if it is parked. From here a read stages
// one client burst.
func (s *session) attach(c net.Conn, fw *ipc.FrameWriter, dec *ipc.FrameDecoder, ord uint64) {
	dec.Grow(burstFrames)
	s.mu.Lock()
	if s.ended || ord < s.connOrd {
		// The session ended between the handshake and here, and its drain is
		// gone, so nothing would ever read (or close) this transport; or a
		// later resume attached first, and this one must not cut what the
		// client sent there (a goodbye, say) off unread.
		s.mu.Unlock()
		c.Close()
		return
	}
	old := s.conn
	s.conn, s.fw, s.dec, s.connOrd = c, fw, dec, ord
	s.cond.Broadcast()
	s.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// sever detaches and closes connection c (if it is still the session's live
// transport). The session itself survives: the client may resume within the
// lease, and the lease kills the process otherwise — fail closed either way.
func (s *session) sever(c net.Conn) {
	s.mu.Lock()
	mine := s.conn == c
	if mine {
		s.conn, s.fw, s.dec = nil, nil, nil
	}
	s.mu.Unlock()
	c.Close()
	if mine {
		s.srv.severed.Inc()
	}
}

// write sends one frame over the live transport, silently dropping it while
// severed — every frame the daemon emits (acks, gate verdicts) is either
// re-derivable after resume or guarded by retransmission.
func (s *session) write(m ipc.Message) {
	s.mu.Lock()
	fw := s.fw
	s.mu.Unlock()
	if fw != nil {
		_ = fw.WriteMessage(m)
	}
}

// RecvBatch implements ipc.Receiver on the pump's drain goroutine: answer
// the gate the last call registered, park while severed, then decode up to
// len(out) frames of what the last read staged straight into out and filter
// them in place. Any burst renews the lease. The client is acked once per
// read(2), cumulatively, so that it can trim its replay ring: by the call
// that empties the staging buffer (the next will block in the read) or ends
// the connection, before its frames are delivered; if they carried a gate,
// by the verdict (or ack) the next call writes before it reads. A client
// blocks only after writing out all it has admitted, so the ack it waits for
// is one these rules send. ok turns false only when the session has ended.
//
// All three stream endings — clean EOF, truncation mid-frame, undecodable
// garbage — are connection deaths, not process deaths: unlike the local fd
// channels (where truncation is a terminal integrity violation) the network
// plane has a resume protocol, so the partial frame is discarded and the
// client retransmits it from the replay buffer. The process only dies if no
// resume arrives within the lease, and then attributably so.
func (s *session) RecvBatch(out []ipc.Message) (int, bool, error) {
	if len(out) == 0 {
		return 0, true, nil
	}
	for {
		if s.pending {
			s.answerGate()
		}
		s.mu.Lock()
		for s.conn == nil && !s.ended {
			s.cond.Wait()
		}
		c, dec := s.conn, s.dec
		ended := s.ended
		s.mu.Unlock()
		if ended {
			return 0, false, nil
		}

		n, open, _ := dec.Decode(out)
		if n > 0 {
			s.touch()
		}
		kept, verdict := s.filter(out[:n])
		last := !open || verdict != burstContinue
		if fwd := s.fwd.Load(); fwd != s.acked && !s.pending && (last || dec.Buffered() == 0) {
			s.acked = fwd
			s.write(ipc.Message{Op: ipc.OpAck, PID: s.pid, Seq: fwd})
		}
		if verdict == burstGoodbye {
			// end() waits for this goroutine's drain to finish, so it cannot
			// run here: mark the session ended, hand the pump the frames that
			// preceded the goodbye, and finalize beside the drain.
			if s.markEnded() {
				go func() {
					defer s.srv.wg.Done()
					s.finalize()
				}()
			}
			return kept, false, nil
		}
		if last {
			s.sever(c)
		}
		if kept > 0 {
			return kept, true, nil
		}
		// Nothing to forward (control frames only, or a dead connection):
		// back to the staged frames, the blocking read, or the park above.
	}
}

// burstVerdict is what a filtered burst asks RecvBatch to do next.
type burstVerdict int

const (
	burstContinue burstVerdict = iota
	burstSever                 // protocol violation: sever the connection
	burstGoodbye               // clean goodbye: the session ends
)

// filter processes one decoded burst in place: control frames (heartbeat,
// gate, goodbye) are served and compacted away, data frames are kept
// verbatim — Seq and Mac exactly as they arrived on the wire, since the
// resume protocol and the hmac sealer both depend on the daemon never
// re-stamping a frame. It returns how many data frames now lead the burst.
// A violating frame or a goodbye stops the burst: nothing after it is
// served or kept.
func (s *session) filter(burst []ipc.Message) (kept int, verdict burstVerdict) {
	fwd := s.fwd.Load() // published once per burst
	defer func() { s.fwd.Store(fwd) }()
	for i := range burst {
		m := &burst[i]
		switch {
		case m.Op == ipc.OpHeartbeat:
			s.write(ipc.Message{Op: ipc.OpHeartbeatAck, PID: s.pid, Seq: fwd})
		case m.Op == ipc.OpGateEnter:
			s.gate(m.Arg1, m.Arg2)
		case m.Op == ipc.OpGoodbye:
			return kept, burstGoodbye
		case m.Op.IsSessionOp():
			// A duplicate HELLO (or any daemon-side op arriving from a
			// client) is a protocol violation: sever and let the lease sort
			// the process out. No state changes on a violating frame.
			return kept, burstSever
		case m.PID != s.pid:
			// The session is the authenticity boundary: a data frame
			// claiming another process's identity is dropped and the
			// connection severed — otherwise a compromised client could
			// splice violations into a bystander's stream (or burn the
			// bystander with a counter gap).
			return kept, burstSever
		case m.Seq != 0 && m.Seq <= fwd:
			// Resume retransmission overlap: already forwarded, drop
			// silently.
		default:
			// Genuine gaps (Seq jumping past fwd+1) are forwarded as-is —
			// the verifier's CheckSeq owns that judgment, and a client that
			// loses messages *inside* its own stream must die by counter,
			// not be repaired by the transport.
			if m.Seq != 0 {
				fwd = m.Seq
			}
			if kept != i {
				burst[kept] = *m
			}
			kept++
		}
	}
	return kept, burstContinue
}

// gate registers one remote system call for the next RecvBatch to answer.
// Idempotent per ordinal: a request retransmitted after a resume neither
// re-runs a gate in flight nor loses a verdict computed while severed.
func (s *session) gate(sysNo, ord uint64) {
	s.mu.Lock()
	if s.ended || ord == s.gateOrd && s.gateRunning {
		s.mu.Unlock()
		return // if in flight, the verdict will be written when it lands
	}
	if ord == s.gateOrd && s.gateDone {
		res := s.gateRes
		s.mu.Unlock()
		s.write(res) // replay the stored verdict
		return
	}
	s.gateOrd, s.gateRunning, s.gateDone = ord, true, false
	s.mu.Unlock()
	s.pending, s.pendSys, s.pendOrd = true, sysNo, ord
}

// answerGate answers the registered gate once the pump has delivered the
// burst that carried it, NotifySyncReady included. A ready or killed pid
// gets a SyscallEnter that cannot wait. Any other gate came ahead of its
// System-Call message, which only this goroutine can deliver, so it goes to
// a waiter — as does any gate while a waiter could take the readiness.
func (s *session) answerGate() {
	s.pending = false
	k := s.srv.sys.Kernel()
	s.acked = s.fwd.Load() // carried by the verdict or the ack below
	if killed, _ := k.Killed(s.pid); killed || s.waiters.Load() == 0 && k.SyncReady(s.pid) {
		s.verdict(s.pendSys, s.pendOrd)
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	// Add while ended is known false under mu: Shutdown ends every session
	// before it waits on wg, so this Add is ordered before that Wait.
	s.srv.wg.Add(1)
	s.mu.Unlock()
	s.waiters.Add(1) // only this goroutine adds
	s.write(ipc.Message{Op: ipc.OpAck, PID: s.pid, Seq: s.acked})
	go func(sysNo, ord uint64) {
		defer s.srv.wg.Done()
		s.verdict(sysNo, ord)
		s.waiters.Add(-1)
	}(s.pendSys, s.pendOrd)
}

// verdict runs gate ord in the kernel, keeps the result for replay and
// writes it, with the forwarded high-water as its ack.
func (s *session) verdict(sysNo, ord uint64) {
	err := s.srv.sys.Kernel().SyscallEnter(s.pid, int(sysNo))
	res := ipc.Message{Op: ipc.OpGateResult, PID: s.pid, Arg1: GatePass, Arg3: ord, Seq: s.fwd.Load()}
	if err != nil {
		res.Arg1 = GateKilled
		res.Arg2 = reasonCode(err.Error())
	}
	s.mu.Lock()
	s.gateRunning, s.gateDone, s.gateRes = false, true, res
	s.mu.Unlock()
	s.write(res)
}

// markEnded flips the session to ended exactly once: best-effort kill
// notice, transport closed, drain goroutine woken so its RecvBatch returns
// ok=false. It reports whether this call was the one that ended the session;
// that caller owes a finalize, and holds an srv.wg slot for it (taken under
// mu for the same ordering reason as in answerGate).
func (s *session) markEnded() bool {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return false
	}
	s.ended = true
	s.srv.wg.Add(1)
	conn, fw := s.conn, s.fw
	s.conn, s.fw, s.dec = nil, nil, nil
	s.cond.Broadcast()
	s.mu.Unlock()

	if conn != nil {
		if killed, reason := s.srv.sys.Kernel().Killed(s.pid); killed && fw != nil {
			_ = fw.WriteMessage(ipc.Message{Op: ipc.OpKillNotice, PID: s.pid, Arg1: reasonCode(reason)})
		}
		conn.Close()
	}
	return true
}

// finalize completes an ended session: the process is finalized (waits for
// the pump to deliver what was forwarded, freezes the attribution row and
// forensic report, exits the kernel context) and the quota released.
func (s *session) finalize() {
	s.proc.Close()
	s.srv.removeSession(s)
	close(s.fin)
}

// end ends and finalizes the session. Idempotent; late callers return
// immediately. Must not run on the session's drain goroutine, which
// finalize waits for.
func (s *session) end() {
	if s.markEnded() {
		defer s.srv.wg.Done()
		s.finalize()
	}
}
