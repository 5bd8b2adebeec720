package hqnet

import (
	"bytes"
	"io"
	"net"
	"regexp"
	"runtime"
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
		supervisor.Config{CheckSeq: true, KillOnViolation: true, Shards: 2},
		Config{Lease: 2 * time.Second})
	nc, pid := h.rawSession(t)
	const n = 20
	writeBurst(t, nc, append(dataFrames(pid, 1, n), ipc.Message{Op: ipc.OpGoodbye, PID: pid})...)

	waitFor(t, 5*time.Second, "session finalized", func() bool { return h.srv.Sessions() == 0 })
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
				supervisor.Config{CheckSeq: true, KillOnViolation: true, Shards: 2},
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

// wedgePolicy blocks the session's drain inside its first Handle until
// released, the burst it read undelivered in its hands.
type wedgePolicy struct {
	policy.Hooks
	release <-chan struct{}
}

func (p *wedgePolicy) Name() string                         { return "wedge" }
func (p *wedgePolicy) Handle(ipc.Message) *policy.Violation { <-p.release; return nil }
func (p *wedgePolicy) Clone() policy.Policy                 { return p }
func (p *wedgePolicy) Entries() int                         { return 0 }

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
			Shards:          1,
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

// TestAttachAfterEndClosesTransport: a resume that loses the race with the
// session's end must not park a live connection on a session nobody drains.
func TestAttachAfterEndClosesTransport(t *testing.T) {
	h := newHarness(t, supervisor.Config{}, Config{Lease: 2 * time.Second})
	_, pid := h.rawSession(t)
	sess := h.session(pid)
	sess.end()

	ours, theirs := net.Pipe()
	defer theirs.Close()
	sess.attach(ours, ipc.NewFrameWriter(ours), ipc.NewFrameDecoder(ours))
	_ = theirs.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := theirs.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on a transport attached to an ended session: %v, want EOF (closed)", err)
	}
}
