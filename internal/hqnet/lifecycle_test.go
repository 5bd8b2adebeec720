package hqnet

import (
	"bytes"
	"io"
	"net"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/kernel"
	"herqules/internal/obs"
	"herqules/internal/policy"
	"herqules/internal/supervisor"
	"herqules/internal/telemetry"
	"herqules/internal/verifier"
)

// These tests pin down where the connection reader now lives: on the pump's
// drain goroutine, inside session.RecvBatch.

// rawSession performs the HELLO handshake on a bare TCP connection, for
// tests that must control exactly which frames share one write (and so, on
// loopback, one decoded burst).
func (h *harness) rawSession(t *testing.T) (net.Conn, int32) {
	t.Helper()
	nc, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := ipc.NewFrameWriter(nc).WriteMessage(ipc.Message{Op: ipc.OpHello, Arg1: WireVersion}); err != nil {
		t.Fatal(err)
	}
	var one [1]ipc.Message
	if n, _, _ := ipc.NewFrameDecoder(nc).Decode(one[:]); n != 1 || one[0].Op != ipc.OpWelcome {
		t.Fatalf("handshake: got %+v, want OpWelcome", one[0])
	}
	return nc, one[0].PID
}

// writeBurst puts frames on the wire in a single write.
func writeBurst(t *testing.T, nc net.Conn, frames ...ipc.Message) {
	t.Helper()
	buf := make([]byte, len(frames)*ipc.MessageSize)
	for i, m := range frames {
		m.Encode(buf[i*ipc.MessageSize:])
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// dataFrames builds counter increments for pid with Seq from..to inclusive.
func dataFrames(pid int32, from, to uint64) []ipc.Message {
	var out []ipc.Message
	for seq := from; seq <= to; seq++ {
		out = append(out, ipc.Message{Op: ipc.OpCounterInc, PID: pid, Seq: seq, Arg1: 1})
	}
	return out
}

// procMessages reports the verified-message count of pid's attribution row.
func (h *harness) procMessages(pid int32) uint64 {
	for _, p := range h.sys.Stats().Procs {
		if p.PID == pid {
			return p.Messages
		}
	}
	return 0
}

// connRow returns pid's /conns row (zero when the session is gone).
func (h *harness) connRow(pid int32) obs.ConnRow {
	for _, c := range h.srv.Conns() {
		if c.PID == pid {
			return c
		}
	}
	return obs.ConnRow{}
}

// session returns pid's live session (nil when there is none).
func (h *harness) session(pid int32) *session {
	h.srv.mu.Lock()
	defer h.srv.mu.Unlock()
	for _, s := range h.srv.sessions {
		if s.pid == pid {
			return s
		}
	}
	return nil
}

// TestGoodbyeInBurstDeliversPrecedingFrames: a goodbye arrives on the drain
// goroutine that session finalization waits for. The data frames ahead of it
// in the same burst must still reach the verifier, and the session must
// finalize (beside the drain, not on it) instead of deadlocking.
func TestGoodbyeInBurstDeliversPrecedingFrames(t *testing.T) {
	h := newHarness(t,
		supervisor.Config{CheckSeq: true, KillOnViolation: true},
		Config{Lease: 2 * time.Second})
	nc, pid := h.rawSession(t)
	const n = 20
	writeBurst(t, nc, append(dataFrames(pid, 1, n), ipc.Message{Op: ipc.OpGoodbye, PID: pid})...)

	waitFor(t, 5*time.Second, "session finalized", func() bool { return len(h.srv.Conns()) == 0 })
	st := h.sys.Stats()
	if st.Finished != 1 || st.Killed != 0 {
		t.Fatalf("finished=%d killed=%d, want 1/0", st.Finished, st.Killed)
	}
	if got := h.procMessages(pid); got != n {
		t.Fatalf("verified %d messages, want the %d that preceded the goodbye", got, n)
	}
}

// TestViolationMidBurstSeversWithoutForwardingRest: a frame forging another
// PID, or a duplicate HELLO, in the middle of a burst severs the connection
// at that frame — the frames before it were forwarded, the frames after it
// in the same burst never are.
func TestViolationMidBurstSeversWithoutForwardingRest(t *testing.T) {
	for name, bad := range map[string]func(victim int32) ipc.Message{
		"pid-forgery":     func(victim int32) ipc.Message { return ipc.Message{Op: ipc.OpCounterInc, PID: victim, Seq: 3, Arg1: 1} },
		"duplicate-hello": func(int32) ipc.Message { return ipc.Message{Op: ipc.OpHello, Arg1: WireVersion} },
	} {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t,
				supervisor.Config{CheckSeq: true, KillOnViolation: true},
				Config{Lease: time.Second})
			_, victim := h.rawSession(t)
			nc, pid := h.rawSession(t)

			burst := append(dataFrames(pid, 1, 2), bad(victim))
			burst = append(burst, dataFrames(pid, 3, 6)...)
			writeBurst(t, nc, burst...)

			waitFor(t, 5*time.Second, "sever", func() bool {
				// Forwarded first: the row also reads unconnected in the
				// instant between the welcome and the attach.
				row := h.connRow(pid)
				return row.ForwardedSeq > 0 && !row.Connected
			})
			if got := h.connRow(pid).ForwardedSeq; got != 2 {
				t.Fatalf("forwarded seq = %d, want 2 (nothing past the violating frame)", got)
			}
			waitFor(t, 5*time.Second, "delivery", func() bool { return h.procMessages(pid) == 2 })
			if got := h.procMessages(victim); got != 0 {
				t.Fatalf("victim verified %d messages, want 0", got)
			}
			if killed, reason := h.sys.Kernel().Killed(victim); killed {
				t.Fatalf("victim killed: %s", reason)
			}
			if !h.connRow(victim).Connected {
				t.Fatal("victim's connection severed by another session's violation")
			}
		})
	}
}

// drainState returns the scheduler state of the goroutine running
// session.RecvBatch ("IO wait", "sync.Cond.Wait", "running", ...), or "" when
// there is none.
func drainState() string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	re := regexp.MustCompile(`(?s)goroutine \d+ \[([^\]]+)\]:\n(.*?)\n\n`)
	for _, g := range re.FindAllSubmatch(append(buf, '\n', '\n'), -1) {
		if bytes.Contains(g[2], []byte("hqnet.(*session).RecvBatch")) {
			return string(g[1])
		}
	}
	return ""
}

// TestIdleHeartbeatSessionKeepsLeaseWithDrainParked: a session that only
// heartbeats forwards nothing, so RecvBatch has nothing to return — it must
// keep the lease alive from inside the blocking read, neither returning
// empty bursts to the pump nor polling.
func TestIdleHeartbeatSessionKeepsLeaseWithDrainParked(t *testing.T) {
	m := telemetry.New(0)
	const lease = 120 * time.Millisecond
	h := newHarness(t,
		supervisor.Config{Metrics: m, KillOnViolation: true},
		Config{Lease: lease})
	c := h.dial(t, ClientConfig{}) // heartbeats every lease/4
	defer c.Close()

	time.Sleep(5 * lease) // several leases of heartbeat-only traffic

	if killed, reason := h.sys.Kernel().Killed(c.PID()); killed {
		t.Fatalf("heartbeating session killed: %s", reason)
	}
	rows := h.srv.Conns()
	if len(rows) != 1 || !rows[0].Connected {
		t.Fatalf("conns = %+v, want one connected session", rows)
	}
	if age := time.Since(time.Unix(0, rows[0].LastRecvUnixNanos)); age > lease {
		t.Fatalf("lease clock is %v old under a %v lease", age, lease)
	}
	if got := m.Snapshot().Histograms["verifier.pump_stall_ns"].Count; got != 0 {
		t.Fatalf("RecvBatch returned %d times on a session that sent no data", got)
	}
	// A drain handling a heartbeat is briefly runnable; one that polls is
	// never in the netpoller.
	waitFor(t, 5*time.Second, "drain goroutine blocked in read", func() bool { return drainState() == "IO wait" })
}

// wedgePolicy blocks the session's drain inside its first HandleRun until
// released, the burst it read undelivered in its hands.
type wedgePolicy struct {
	policy.Hooks
	release <-chan struct{}
}

func (p *wedgePolicy) Name() string                         { return "wedge" }
func (p *wedgePolicy) Handle(ipc.Message) *policy.Violation { <-p.release; return nil }
func (p *wedgePolicy) HandleRun(ms []ipc.Message) (int, *policy.Violation) {
	<-p.release
	return len(ms), nil
}
func (p *wedgePolicy) Clone() policy.Policy { return p }
func (p *wedgePolicy) Entries() int         { return 0 }

// TestWedgedVerifierEndsInLeaseKill is the admission backpressure story end
// to end: a wedged policy blocks the drain inside a delivery, the drain stops
// reading, the lease stops renewing although the client heartbeats on time,
// and the process dies with the lease reason — while the daemon holds one
// burst of frames and the client's sends block.
func TestWedgedVerifierEndsInLeaseKill(t *testing.T) {
	release := make(chan struct{})
	h := newHarness(t,
		supervisor.Config{
			Policies:        func() []policy.Policy { return []policy.Policy{&wedgePolicy{release: release}} },
			KillOnViolation: true,
		},
		Config{Lease: 300 * time.Millisecond})
	c := h.dial(t, ClientConfig{})
	defer c.Close()
	defer close(release) // before c.Close and Shutdown, which wait for the drain

	sent := make(chan int, 1)
	go func() {
		n := 0
		for ; n < 1<<20; n++ {
			if c.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: 1}) != nil {
				break
			}
		}
		sent <- n
	}()

	waitFor(t, 10*time.Second, "lease kill", func() bool {
		killed, _ := h.sys.Kernel().Killed(c.PID())
		return killed
	})
	if _, reason := h.sys.Kernel().Killed(c.PID()); reason != kernel.ReasonLeaseExpired {
		t.Fatalf("kill reason = %q, want %q", reason, kernel.ReasonLeaseExpired)
	}
	// What the daemon took off the wire is the one burst in the drain's hands.
	const bound = verifier.DefaultBatchSize
	rows := h.srv.Conns()
	if len(rows) != 1 || rows[0].ForwardedSeq == 0 || rows[0].ForwardedSeq > bound {
		t.Fatalf("conns = %+v, want one session with 0 < forwarded seq <= %d", rows, bound)
	}
	select {
	case n := <-sent:
		if n == 1<<20 {
			t.Fatal("client pushed every frame into a daemon that had stopped reading")
		}
	default: // still blocked on its full replay buffer: backpressure reached the client
	}
}

// awaitKillNotice reads nc's frames until the daemon's kill notice arrives,
// within d, and returns its reason code.
func awaitKillNotice(t *testing.T, nc net.Conn, d time.Duration) uint64 {
	t.Helper()
	_ = nc.SetReadDeadline(time.Now().Add(d))
	dec := ipc.NewFrameDecoder(nc)
	var one [1]ipc.Message
	for {
		n, open, err := dec.Decode(one[:])
		if n == 1 && one[0].Op == ipc.OpKillNotice {
			return one[0].Arg1
		}
		if !open || err != nil {
			t.Fatalf("no kill notice within %v: %v", d, err)
		}
	}
}

// returnsWithin fails t unless f returns within d. A call that blocks is left
// behind, parked, until whatever it waits on lets go.
func returnsWithin(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v", what, d)
	}
}

// TestWedgedContextDelaysNoOtherLease: a policy stuck under one process's
// context lock must neither keep that process alive past its lease, nor hold
// up any other session's lease, nor hang an observer. Process A's drain wedges
// inside a delivery and A is lease-killed; while A's context is still wedged,
// the System's stats, per-PID rows and postmortems and the /metrics, /procs
// and /violations endpoints all answer, A's row reading killed for the
// lease; and a second, silent session admitted afterwards still gets its own
// lease kill on time.
func TestWedgedContextDelaysNoOtherLease(t *testing.T) {
	const lease = 300 * time.Millisecond
	release := make(chan struct{})
	h := newHarness(t,
		supervisor.Config{
			Policies:        func() []policy.Policy { return []policy.Policy{&wedgePolicy{release: release}} },
			KillOnViolation: true,
		},
		Config{Lease: lease})
	a := h.dial(t, ClientConfig{})
	defer a.Close()
	defer close(release) // before a.Close and Shutdown, which wait for A's drain
	go func() {
		for a.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: 1}) == nil {
		}
	}()
	waitFor(t, 10*time.Second, "A's lease kill", func() bool {
		killed, _ := h.sys.Kernel().Killed(a.PID())
		return killed
	})
	if _, reason := h.sys.Kernel().Killed(a.PID()); reason != kernel.ReasonLeaseExpired {
		t.Fatalf("A's kill reason = %q, want %q", reason, kernel.ReasonLeaseExpired)
	}

	const answer = time.Second
	var st supervisor.Stats
	returnsWithin(t, answer, "System.Stats", func() { st = h.sys.Stats() })
	row := false
	for _, p := range st.Procs {
		if p.PID == a.PID() {
			row = true
			if p.State != "killed" || p.KillReason != kernel.ReasonLeaseExpired {
				t.Errorf("A's row reads %q (%q), want killed (%q)", p.State, p.KillReason, kernel.ReasonLeaseExpired)
			}
		}
	}
	if !row {
		t.Errorf("Stats has no row for A: %+v", st.Procs)
	}
	returnsWithin(t, answer, "System.ProcStats", func() { h.sys.ProcStats() })
	returnsWithin(t, answer, "System.Forensics(A)", func() { h.sys.Forensics(a.PID()) })
	returnsWithin(t, answer, "System.AllForensics", func() { h.sys.AllForensics() })
	o := obs.NewServer(h.sys)
	o.SetConnReporter(h.srv)
	for _, path := range []string{"/metrics", "/procs", "/violations"} {
		rec := httptest.NewRecorder()
		returnsWithin(t, answer, path, func() { o.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil)) })
		if rec.Code != 200 {
			t.Errorf("%s: status %d", path, rec.Code)
		}
	}

	b, _ := h.rawSession(t) // admitted while A's context is still wedged
	if code := awaitKillNotice(t, b, 10*lease); code != ReasonCodeLease {
		t.Fatalf("B's kill notice carries reason code %d, want the lease's %d", code, ReasonCodeLease)
	}
	if killed, _ := h.sys.Kernel().Killed(a.PID()); !killed {
		t.Fatal("A is no longer in the kernel's table although its context is still wedged")
	}
}

// TestLeaseKillWindowEndsInLeaseExpired is the lease's counterpart of the
// supervisor's epoch-kill window test: a session that sends three frames and
// falls silent is lease-killed, and its frozen flight window opens with the
// admission (registered, lease-granted), holds the three messages, and ends
// lease-expired (the overshoot past the lease, in ns) → killed.
func TestLeaseKillWindowEndsInLeaseExpired(t *testing.T) {
	const lease = 50 * time.Millisecond
	h := newHarness(t, supervisor.Config{KillOnViolation: true, CheckSeq: true}, Config{Lease: lease})
	nc, pid := h.rawSession(t)
	writeBurst(t, nc, dataFrames(pid, 1, 3)...)
	if code := awaitKillNotice(t, nc, 5*time.Second); code != ReasonCodeLease {
		t.Fatalf("kill notice carries reason code %d, want the lease's %d", code, ReasonCodeLease)
	}
	var rep supervisor.ForensicReport
	waitFor(t, 5*time.Second, "forensic report", func() bool {
		var ok bool
		rep, ok = h.sys.Forensics(pid)
		return ok
	})
	if rep.KillReason != kernel.ReasonLeaseExpired {
		t.Fatalf("kill reason %q, want %q", rep.KillReason, kernel.ReasonLeaseExpired)
	}
	var codes []string
	for _, e := range rep.Window {
		codes = append(codes, e.Code)
	}
	want := []string{"registered", "lease-granted", "ok", "ok", "ok", "lease-expired", "killed"}
	if strings.Join(codes, " ") != strings.Join(want, " ") {
		t.Fatalf("window %v, want %v\n%+v", codes, want, rep.Window)
	}
	for i, e := range rep.Window[2:5] {
		if e.Kind != "message" || e.Seq != uint64(i+1) {
			t.Errorf("window record %d = %+v, want message seq %d", i+2, e, i+1)
		}
	}
	if got := rep.Window[1].Value; got != uint64(lease) {
		t.Errorf("lease-granted value %d ns, want the %v lease", got, lease)
	}
	if rep.Window[5].Value == 0 {
		t.Error("lease-expired carries no overshoot")
	}
}

// TestAttachAfterEndClosesTransport: a resume that loses the race with the
// session's end must not park a live connection on a session nobody drains.
func TestAttachAfterEndClosesTransport(t *testing.T) {
	h := newHarness(t, supervisor.Config{}, Config{Lease: 2 * time.Second})
	_, pid := h.rawSession(t)
	sess := h.session(pid)
	sess.end()

	ours, theirs := net.Pipe()
	defer theirs.Close()
	sess.attach(ours, ipc.NewFrameWriter(ours), ipc.NewFrameDecoder(ours), 0)
	_ = theirs.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := theirs.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on a transport attached to an ended session: %v, want EOF (closed)", err)
	}
}

// TestLateResumeDoesNotDisplaceNewer: a resume whose handshake finished
// first but attaches last must not cut off the transport a later resume
// already attached — what the client wrote there (a resent goodbye, say)
// would go unread.
func TestLateResumeDoesNotDisplaceNewer(t *testing.T) {
	h := newHarness(t, supervisor.Config{}, Config{Lease: 2 * time.Second})
	_, pid := h.rawSession(t)
	sess := h.session(pid)

	newer, newerPeer := net.Pipe()
	defer newerPeer.Close()
	older, olderPeer := net.Pipe()
	defer olderPeer.Close()
	sess.attach(newer, ipc.NewFrameWriter(newer), ipc.NewFrameDecoder(newer), 2)
	sess.attach(older, ipc.NewFrameWriter(older), ipc.NewFrameDecoder(older), 1)
	_ = olderPeer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := olderPeer.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on the late resume's transport: %v, want EOF (closed)", err)
	}
	sess.mu.Lock()
	live := sess.conn
	sess.mu.Unlock()
	if live != newer {
		t.Fatal("the late resume displaced the newer transport")
	}
	sess.end()
}

// goodbyeDropper fails the first Write that carries an OpGoodbye, the way a
// transport dying under it would: none of it is written and the connection
// closes.
type goodbyeDropper struct {
	net.Conn
	dropped *atomic.Bool
}

func (d *goodbyeDropper) Write(p []byte) (int, error) {
	for off := 0; off+ipc.MessageSize <= len(p); off += ipc.MessageSize {
		m, err := ipc.DecodeMessage(p[off : off+ipc.MessageSize])
		if err == nil && m.Op == ipc.OpGoodbye && d.dropped.CompareAndSwap(false, true) {
			d.Conn.Close()
			return 0, net.ErrClosed
		}
	}
	return d.Conn.Write(p)
}

// TestCloseResendsLostGoodbye loses the goodbye of a process whose every
// frame the daemon acked: Close must say it again on a resumed connection,
// so the process ends exited — not killed by the lease for "connection lease
// expired", with a kill counted and a forensic report frozen.
func TestCloseResendsLostGoodbye(t *testing.T) {
	m := telemetry.New(0)
	h := newHarness(t,
		supervisor.Config{Metrics: m, CheckSeq: true, KillOnViolation: true, FlightRecorder: 64},
		Config{Lease: 100 * time.Millisecond})
	var dropped atomic.Bool
	c := h.dial(t, ClientConfig{WrapConn: func(nc net.Conn) net.Conn {
		return &goodbyeDropper{Conn: nc, dropped: &dropped}
	}})
	for i := 0; i < 32; i++ {
		if err := c.Sender().Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: 1}); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if !dropped.Load() {
		t.Fatal("no goodbye went out to be dropped")
	}

	var row supervisor.ProcStats
	waitFor(t, 5*time.Second, "the process to finish", func() bool {
		for _, p := range h.sys.Stats().Procs {
			if p.PID == c.PID() && p.State != "running" {
				row = p
				return true
			}
		}
		return false
	})
	if row.State != "exited" || row.KillReason != "" {
		t.Fatalf("pid %d ended %s %q, want exited with no kill", row.PID, row.State, row.KillReason)
	}
	// A lease kill would land a lease later; wait past it.
	time.Sleep(3 * h.srv.lease)
	if kills := m.Snapshot().Counters["kernel.kills"].Total; kills != 0 {
		t.Fatalf("kernel.kills = %d, want 0", kills)
	}
	if _, ok := h.sys.Forensics(c.PID()); ok {
		t.Fatal("forensic report frozen for a clean exit")
	}
}
