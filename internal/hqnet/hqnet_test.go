package hqnet

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/kernel"
	"herqules/internal/policy"
	"herqules/internal/supervisor"
	"herqules/internal/telemetry"
)

// harness is one daemon instance under test: a real supervisor.System behind
// a real TCP listener.
type harness struct {
	sys  *supervisor.System
	srv  *Server
	addr string
}

func newHarness(t testing.TB, scfg supervisor.Config, cfg Config) *harness {
	t.Helper()
	sys := supervisor.New(scfg)
	cfg.Sys = sys
	srv := NewServer(cfg)
	ln, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return &harness{sys: sys, srv: srv, addr: ln.Addr().String()}
}

func (h *harness) dial(t *testing.T, cfg ClientConfig) *Client {
	t.Helper()
	cfg.Network, cfg.Addr = "tcp", h.addr
	c, err := Dial(context.Background(), cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return c
}

// killReason reports whether pid was killed, surviving finalization: the
// live kernel context answers while the process is registered, and the
// frozen supervisor attribution row answers after Exit tore it down.
func (h *harness) killReason(pid int32) (bool, string) {
	if killed, reason := h.sys.Kernel().Killed(pid); killed {
		return true, reason
	}
	for _, p := range h.sys.Stats().Procs {
		if p.PID == pid && p.KillReason != "" {
			return true, p.KillReason
		}
	}
	return false, ""
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSessionRoundTrip drives a clean process end to end over TCP: admission,
// a monitored message stream, a gated system call that passes, and a clean
// goodbye that finalizes (not kills) the resident process.
func TestSessionRoundTrip(t *testing.T) {
	h := newHarness(t,
		supervisor.Config{CheckSeq: true, KillOnViolation: true, Shards: 2},
		Config{Lease: 2 * time.Second})
	c := h.dial(t, ClientConfig{Tenant: 7})
	if c.PID() <= 0 {
		t.Fatalf("PID = %d, want > 0", c.PID())
	}
	if c.Lease() != 2*time.Second {
		t.Fatalf("lease = %v, want 2s", c.Lease())
	}

	sender := c.Sender()
	const n = 100
	for i := 0; i < n; i++ {
		if err := sender.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: 1}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := sender.Send(ipc.Message{Op: ipc.OpSyscall, Arg1: 42}); err != nil {
		t.Fatalf("send syscall: %v", err)
	}
	if err := c.SyscallEnter(c.PID(), 42); err != nil {
		t.Fatalf("gate: %v (want pass)", err)
	}
	if killed, reason := c.Killed(); killed {
		t.Fatalf("clean client reported killed: %s", reason)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	waitFor(t, 5*time.Second, "session end", func() bool { return h.srv.Sessions() == 0 })
	st := h.sys.Stats()
	if st.Killed != 0 {
		t.Fatalf("killed = %d, want 0", st.Killed)
	}
	if st.Finished != 1 {
		t.Fatalf("finished = %d, want 1", st.Finished)
	}
	if st.MessagesVerified < n+1 {
		t.Fatalf("messages verified = %d, want >= %d", st.MessagesVerified, n+1)
	}
}

// TestKeyedSessionSealsOverWire runs the hmac policy set over the network:
// the daemon delivers the kernel-programmed MAC key during the handshake and
// the client's Sender() seals every frame, so the verifier authenticates a
// stream that really crossed an untrusted transport.
func TestKeyedSessionSealsOverWire(t *testing.T) {
	factory, err := policy.SetFactory("hmac", "counter")
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t,
		supervisor.Config{Policies: factory, KillOnViolation: true, Shards: 2},
		Config{Lease: 2 * time.Second})
	c := h.dial(t, ClientConfig{})
	if !c.keyed {
		t.Fatal("client not keyed under an hmac policy set")
	}

	sender := c.Sender() // ipc.SealSender over the session
	for i := 0; i < 64; i++ {
		if err := sender.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: 1}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := sender.Send(ipc.Message{Op: ipc.OpSyscall, Arg1: 1}); err != nil {
		t.Fatalf("send syscall: %v", err)
	}
	if err := c.SyscallEnter(c.PID(), 1); err != nil {
		t.Fatalf("gate under hmac: %v (want pass)", err)
	}
	c.Close()
	waitFor(t, 5*time.Second, "session end", func() bool { return h.srv.Sessions() == 0 })
	if st := h.sys.Stats(); st.Killed != 0 {
		t.Fatalf("killed = %d, want 0 (sealed stream must authenticate)", st.Killed)
	}
}

// TestViolatorKilledAtGate sends a sequence-gapped stream (the counter
// policy's violation) and asserts the gate reports the kill to the remote
// client — the fail-closed path for a genuinely misbehaving process.
func TestViolatorKilledAtGate(t *testing.T) {
	h := newHarness(t,
		supervisor.Config{CheckSeq: true, KillOnViolation: true, Shards: 2},
		Config{Lease: 2 * time.Second})
	c := h.dial(t, ClientConfig{})

	if err := c.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: 1}); err != nil {
		t.Fatal(err)
	}
	// Explicit Seq far past the stream position: a genuine gap the daemon
	// must forward (not repair) so the verifier's counter check judges it.
	if err := c.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: 1, Seq: 50}); err != nil {
		t.Fatal(err)
	}
	err := c.SyscallEnter(c.PID(), 9)
	if err == nil {
		t.Fatal("gate passed for a sequence-gapped stream")
	}
	waitFor(t, 5*time.Second, "kill visibility", func() bool {
		killed, _ := h.killReason(c.PID())
		return killed
	})
	if killed, _ := c.Killed(); !killed {
		t.Fatal("client Killed() = false after a killed gate verdict")
	}
	c.Close()
}

// TestLeaseExpiryKillsFailClosed goes silent past the lease: the daemon must
// kill the resident process with exactly kernel.ReasonLeaseExpired and notify
// the (still connected, just silent) client.
func TestLeaseExpiryKillsFailClosed(t *testing.T) {
	m := telemetry.New(0)
	h := newHarness(t,
		supervisor.Config{Metrics: m, FlightRecorder: 64, KillOnViolation: true},
		Config{Lease: 50 * time.Millisecond, Metrics: m})
	c := h.dial(t, ClientConfig{HeartbeatEvery: time.Hour}) // never renew
	defer c.Close()

	waitFor(t, 5*time.Second, "lease kill", func() bool {
		killed, _ := h.killReason(c.PID())
		return killed
	})
	if _, reason := h.killReason(c.PID()); reason != kernel.ReasonLeaseExpired {
		t.Fatalf("kill reason = %q, want %q", reason, kernel.ReasonLeaseExpired)
	}
	// The kill notice reaches the client over the still-open transport.
	waitFor(t, 5*time.Second, "kill notice", func() bool {
		killed, _ := c.Killed()
		return killed
	})
	if _, reason := c.Killed(); reason != kernel.ReasonLeaseExpired {
		t.Fatalf("client kill reason = %q, want %q", reason, kernel.ReasonLeaseExpired)
	}
	// The death is attributable in forensics: lease, not counter gap.
	waitFor(t, 5*time.Second, "forensic report", func() bool {
		rep, ok := h.sys.Forensics(c.PID())
		return ok && rep.KillReason == kernel.ReasonLeaseExpired
	})
}

// TestResumeReplaysGapFree severs the transport mid-stream and asserts the
// session survives: the client resumes, replays from the daemon's ack, and
// the verifier — running strict sequence checking — sees a gap-free stream.
func TestResumeReplaysGapFree(t *testing.T) {
	var mu sync.Mutex
	var conns []net.Conn
	h := newHarness(t,
		supervisor.Config{CheckSeq: true, KillOnViolation: true, Shards: 2},
		Config{Lease: 5 * time.Second})
	c := h.dial(t, ClientConfig{
		WrapConn: func(nc net.Conn) net.Conn {
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			return nc
		},
	})

	for i := 0; i < 50; i++ {
		if err := c.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: 1}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	// Sever the first transport out from under the client, acks pending.
	mu.Lock()
	conns[0].Close()
	mu.Unlock()

	for i := 0; i < 50; i++ {
		if err := c.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: 1}); err != nil {
			t.Fatalf("send after sever: %v", err)
		}
		checkRing(t, c)
	}
	if err := c.Send(ipc.Message{Op: ipc.OpSyscall, Arg1: 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.SyscallEnter(c.PID(), 3); err != nil {
		t.Fatalf("gate after resume: %v (a severed clean proc must not die by counter gap)", err)
	}
	if got := c.Resumes(); got < 1 {
		t.Fatalf("resumes = %d, want >= 1", got)
	}
	if killed, reason := h.sys.Kernel().Killed(c.PID()); killed {
		t.Fatalf("clean severed proc killed: %s", reason)
	}
	c.Close()
	waitFor(t, 5*time.Second, "session end", func() bool { return h.srv.Sessions() == 0 })
	if st := h.sys.Stats(); st.Killed != 0 {
		t.Fatalf("killed = %d, want 0", st.Killed)
	}
}

// TestAdmissionQuotas exercises both caps: global MaxSessions and the
// per-tenant quota. Over-cap admission is rejected, never queued.
func TestAdmissionQuotas(t *testing.T) {
	h := newHarness(t,
		supervisor.Config{},
		Config{Lease: 2 * time.Second, MaxSessions: 2, TenantQuota: 1})

	c1 := h.dial(t, ClientConfig{Tenant: 1})
	defer c1.Close()

	// Same tenant again: per-tenant quota.
	_, err := Dial(context.Background(), ClientConfig{Network: "tcp", Addr: h.addr, Tenant: 1})
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Code != RejectQuota {
		t.Fatalf("second tenant-1 dial: err = %v, want RejectQuota", err)
	}

	c2 := h.dial(t, ClientConfig{Tenant: 2})
	defer c2.Close()

	// Third session: global cap.
	_, err = Dial(context.Background(), ClientConfig{Network: "tcp", Addr: h.addr, Tenant: 3})
	if !errors.As(err, &rej) || rej.Code != RejectQuota {
		t.Fatalf("third dial: err = %v, want RejectQuota", err)
	}

	// Quota slots release with the session.
	c1.Close()
	waitFor(t, 5*time.Second, "slot release", func() bool { return h.srv.Sessions() == 1 })
	c3 := h.dial(t, ClientConfig{Tenant: 3})
	c3.Close()
}

// TestStaleResumeRejected forges a resume token: the daemon must reject it
// without touching any live session.
func TestStaleResumeRejected(t *testing.T) {
	h := newHarness(t, supervisor.Config{}, Config{Lease: 2 * time.Second})
	live := h.dial(t, ClientConfig{})
	defer live.Close()

	nc, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	fw := ipc.NewFrameWriter(nc)
	if err := fw.WriteMessage(ipc.Message{Op: ipc.OpResume, PID: live.PID(), Arg1: 0xdeadbeef}); err != nil {
		t.Fatal(err)
	}
	dec := ipc.NewFrameDecoder(nc)
	var one [1]ipc.Message
	n, _, _ := dec.Decode(one[:])
	if n != 1 || one[0].Op != ipc.OpReject || one[0].Arg1 != RejectUnknownSession {
		t.Fatalf("forged resume: got %+v, want OpReject/RejectUnknownSession", one[0])
	}
	// The live session is untouched.
	if h.srv.Sessions() != 1 {
		t.Fatalf("sessions = %d after forged resume, want 1", h.srv.Sessions())
	}
	if killed, _ := h.sys.Kernel().Killed(live.PID()); killed {
		t.Fatal("live proc killed by a forged resume")
	}
}

// TestDuplicateHelloSeversThenLeaseKills sends a second HELLO on an admitted
// connection: a protocol violation. The daemon severs the transport (no state
// change) and the lease — not the violation itself — disposes of the process,
// attributably.
func TestDuplicateHelloSeversThenLeaseKills(t *testing.T) {
	h := newHarness(t, supervisor.Config{KillOnViolation: true}, Config{Lease: 60 * time.Millisecond})

	nc, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	fw := ipc.NewFrameWriter(nc)
	if err := fw.WriteMessage(ipc.Message{Op: ipc.OpHello, Arg1: WireVersion}); err != nil {
		t.Fatal(err)
	}
	dec := ipc.NewFrameDecoder(nc)
	var one [1]ipc.Message
	n, _, _ := dec.Decode(one[:])
	if n != 1 || one[0].Op != ipc.OpWelcome {
		t.Fatalf("handshake: got %+v, want OpWelcome", one[0])
	}
	pid := one[0].PID

	// Duplicate HELLO: the daemon severs.
	if err := fw.WriteMessage(ipc.Message{Op: ipc.OpHello, Arg1: WireVersion}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "sever", func() bool {
		_ = nc.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
		buf := make([]byte, 1)
		_, err := nc.Read(buf)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return false
		}
		return err != nil
	})

	// No resume arrives, so the lease kills — with the lease reason, not a
	// protocol or counter one.
	waitFor(t, 5*time.Second, "lease kill", func() bool {
		killed, _ := h.killReason(pid)
		return killed
	})
	if _, reason := h.killReason(pid); reason != kernel.ReasonLeaseExpired {
		t.Fatalf("kill reason = %q, want %q", reason, kernel.ReasonLeaseExpired)
	}
	waitFor(t, 5*time.Second, "session disposal", func() bool { return h.srv.Sessions() == 0 })
}

// TestPIDForgerySevers splices a data frame claiming another PID into an
// admitted session: the daemon must sever without forwarding it.
func TestPIDForgerySevers(t *testing.T) {
	h := newHarness(t,
		supervisor.Config{CheckSeq: true, KillOnViolation: true},
		Config{Lease: 2 * time.Second})
	victim := h.dial(t, ClientConfig{})
	defer victim.Close()
	attacker := h.dial(t, ClientConfig{})
	defer attacker.Close()

	// The attacker forges the victim's PID on its own session. Client.Send
	// would stamp the attacker's PID, so drive the wire directly.
	if err := attacker.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: 1}); err != nil {
		t.Fatal(err)
	}
	forged := ipc.Message{Op: ipc.OpCounterInc, PID: victim.PID(), Seq: 99, Arg1: 1}
	attacker.flush(&forged) // behind the frame above, like any control frame

	// The forgery severs the attacker's connection; the victim's stream is
	// untouched — it can still pass a gate.
	if err := victim.Send(ipc.Message{Op: ipc.OpSyscall, Arg1: 5}); err != nil {
		t.Fatal(err)
	}
	if err := victim.SyscallEnter(victim.PID(), 5); err != nil {
		t.Fatalf("victim gate: %v (forged frame must not poison the victim)", err)
	}
	if killed, reason := h.sys.Kernel().Killed(victim.PID()); killed {
		t.Fatalf("victim killed by spliced frame: %s", reason)
	}
}

// TestShutdownDrainsAndRejects: SIGTERM semantics. In-flight sessions get the
// grace window; new admissions are refused while draining; Shutdown leaves
// the underlying System finalized.
func TestShutdownDrains(t *testing.T) {
	h := newHarness(t, supervisor.Config{}, Config{Lease: 500 * time.Millisecond})
	c := h.dial(t, ClientConfig{})
	if err := c.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: 1}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		done <- h.srv.Shutdown(ctx)
	}()
	// Give the drain a moment to close the listener, then end cleanly.
	waitFor(t, 5*time.Second, "listener closed", func() bool {
		nc, err := net.Dial("tcp", h.addr)
		if err != nil {
			return true
		}
		nc.Close()
		return false
	})
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := h.sys.Stats(); st.Finished != 1 || st.Killed != 0 {
		t.Fatalf("finished=%d killed=%d after drain, want 1/0", st.Finished, st.Killed)
	}
}

// TestConnsReporting: the obs.ConnReporter rows carry the per-session gauges.
func TestConnsReporting(t *testing.T) {
	h := newHarness(t, supervisor.Config{CheckSeq: true}, Config{Lease: 2 * time.Second})
	c := h.dial(t, ClientConfig{Tenant: 9})
	defer c.Close()
	for i := 0; i < 10; i++ {
		if err := c.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: 1}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "forwarded seq", func() bool {
		rows := h.srv.Conns()
		return len(rows) == 1 && rows[0].ForwardedSeq >= 10
	})
	row := h.srv.Conns()[0]
	if row.PID != c.PID() || row.Tenant != 9 || !row.Connected {
		t.Fatalf("row = %+v, want pid=%d tenant=9 connected", row, c.PID())
	}
	if row.LeaseNanos != int64(2*time.Second) {
		t.Fatalf("lease nanos = %d, want %d", row.LeaseNanos, int64(2*time.Second))
	}
}

// TestReasonCodeClassifiesWrappedAndBare: kills reach the wire through two
// shapes — the kill listener's bare reason string, and SyscallEnter's error,
// which wraps it as "kernel: pid N killed: <reason>". Both must classify to
// the same wire code, and the wedged reason (a superstring of the epoch
// reason) must not degrade to the epoch code.
func TestReasonCodeClassifiesWrappedAndBare(t *testing.T) {
	cases := []struct {
		reason string
		want   uint64
	}{
		{kernel.ReasonLeaseExpired, ReasonCodeLease},
		{"kernel: pid 7 killed: " + kernel.ReasonLeaseExpired, ReasonCodeLease},
		{kernel.ReasonEpochExpired, ReasonCodeEpoch},
		{"kernel: pid 7 killed: " + kernel.ReasonEpochExpired, ReasonCodeEpoch},
		{kernel.ReasonWedgedVerifier, ReasonCodeWedged},
		{"kernel: pid 7 killed: " + kernel.ReasonWedgedVerifier + ": shard 2", ReasonCodeWedged},
		{"hqd: daemon shutdown", ReasonCodeShutdown},
		{"cfi: pointer check failed", ReasonCodeOther},
	}
	for _, tc := range cases {
		if got := reasonCode(tc.reason); got != tc.want {
			t.Errorf("reasonCode(%q) = %d, want %d", tc.reason, got, tc.want)
		}
	}
}
