package hqnet

import (
	"context"
	"io"
	"net"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/kernel"
	"herqules/internal/policy"
	"herqules/internal/supervisor"
	"herqules/internal/telemetry"
)

// These tests pin down who answers a remote gate: the drain goroutine, once
// the burst that carried the request has been delivered, with the verdict as
// that burst's ack — or, for a request that arrived ahead of its System-Call
// message, a waiter goroutine with the kernel's epoch behind it.

// readUntil reads frames off dec until one with op arrives, and returns all
// of them, that one last.
func readUntil(t *testing.T, nc net.Conn, dec *ipc.FrameDecoder, op ipc.Op) []ipc.Message {
	t.Helper()
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var got []ipc.Message
	var one [1]ipc.Message
	for {
		n, ok, err := dec.Decode(one[:])
		if n == 1 {
			if got = append(got, one[0]); one[0].Op == op {
				return got
			}
		}
		if !ok {
			t.Fatalf("connection ended waiting for %v after %+v: %v", op, got, err)
		}
	}
}

// TestGateAnsweredByDrain: a compliant client's gates never stall in the
// kernel, and each round trip costs the daemon one frame — the verdict,
// carrying the System-Call message's Seq as the ack, with no ack ahead of it.
func TestGateAnsweredByDrain(t *testing.T) {
	h := newHarness(t,
		supervisor.Config{CheckSeq: true, KillOnViolation: true},
		Config{Lease: 10 * time.Second})
	// A Unix socket: the request and the frames before it, one writev, are
	// one read on the daemon's side.
	inner, err := net.Listen("unix", filepath.Join(t.TempDir(), "hqd.sock"))
	if err != nil {
		t.Fatal(err)
	}
	ln := tapListener{Listener: inner, conns: make(chan *readTap, 1)}
	h.srv.Serve(ln)
	c, err := Dial(context.Background(), ClientConfig{Network: "unix", Addr: inner.Addr().String(), HeartbeatEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rt := <-ln.conns

	const gates, perGate = 200, 4 // three messages and the System-Call message
	for g := 0; g < gates; g++ {
		sendN(t, c, perGate-1)
		gateThrough(t, c, c, 3)
	}
	if st, _ := h.sys.Kernel().Stats(c.PID()); st.Syscalls != gates || st.SyncStalls != 0 {
		t.Fatalf("kernel stats: %d syscalls, %d sync stalls, want %d and 0", st.Syscalls, st.SyncStalls, gates)
	}

	rt.mu.Lock()
	sent := append([]ipc.Message(nil), rt.sent...)
	rt.mu.Unlock()
	if len(sent) == 0 || sent[0].Op != ipc.OpWelcome {
		t.Fatalf("daemon wrote %+v, want the welcome first", sent)
	}
	if sent = sent[1:]; len(sent) != gates {
		t.Fatalf("%d frames to the client for %d round trips, want one each: %+v", len(sent), gates, sent)
	}
	for g, m := range sent {
		want := uint64((g + 1) * perGate)
		if m.Op != ipc.OpGateResult || m.Arg1 != GatePass || m.Arg3 != uint64(g+1) || m.Seq != want {
			t.Fatalf("frame %d to the client is %+v, want the pass verdict of gate %d carrying Seq %d", g, m, g+1, want)
		}
	}
}

// TestGateAheadOfItsSyscallMessage: a request that reaches the daemon before
// the System-Call message it gates cannot be answered by the drain, which is
// the only goroutine that could deliver that message. It waits in the kernel
// on a goroutine of its own, under the epoch and the degraded policy exactly
// as a local gate does.
func TestGateAheadOfItsSyscallMessage(t *testing.T) {
	// gateAhead sends the request for gate 1 on a raw session and the
	// System-Call message after follow (never, if follow < 0), and returns the
	// verdict and pid's kernel stats.
	gateAhead := func(t *testing.T, scfg supervisor.Config, follow time.Duration) (ipc.Message, kernel.ProcStats) {
		h := newHarness(t, scfg, Config{Lease: 10 * time.Second})
		nc, pid := h.rawSession(t)
		writeBurst(t, nc, ipc.Message{Op: ipc.OpGateEnter, PID: pid, Arg1: 3, Arg2: 1})
		if follow >= 0 {
			time.Sleep(follow)
			writeBurst(t, nc, ipc.Message{Op: ipc.OpSyscall, PID: pid, Seq: 1, Arg1: 3})
		}
		got := readUntil(t, nc, ipc.NewFrameDecoder(nc), ipc.OpGateResult)
		st, _ := h.sys.Kernel().Stats(pid)
		writeBurst(t, nc, ipc.Message{Op: ipc.OpGoodbye, PID: pid})
		return got[len(got)-1], st
	}

	t.Run("message-follows", func(t *testing.T) {
		res, st := gateAhead(t, supervisor.Config{CheckSeq: true, KillOnViolation: true}, 20*time.Millisecond)
		if res.Arg1 != GatePass || res.Arg3 != 1 || res.Seq != 1 {
			t.Fatalf("verdict %+v, want pass for gate 1 acking Seq 1", res)
		}
		if st.Syscalls != 1 || st.SyncStalls != 1 {
			t.Fatalf("kernel stats: %d syscalls, %d sync stalls, want 1 and 1", st.Syscalls, st.SyncStalls)
		}
	})
	t.Run("epoch-expires", func(t *testing.T) {
		res, _ := gateAhead(t, supervisor.Config{KillOnViolation: true, Epoch: 50 * time.Millisecond}, -1)
		if res.Arg1 != GateKilled || res.Arg2 != ReasonCodeEpoch {
			t.Fatalf("verdict %+v, want killed with the epoch reason", res)
		}
	})
	t.Run("degraded-log-only", func(t *testing.T) {
		res, st := gateAhead(t, supervisor.Config{KillOnViolation: true, Epoch: 50 * time.Millisecond, Degraded: kernel.DegradedLogOnly}, -1)
		if res.Arg1 != GatePass {
			t.Fatalf("verdict %+v, want pass under the log-only policy", res)
		}
		if st.DegradedAllows != 1 {
			t.Fatalf("kernel stats: %d degraded allows, want 1", st.DegradedAllows)
		}
	})
}

// TestGateBehindAWaiterPasses: a client out of protocol order has two gates
// in the kernel at once — the first sent ahead of its System-Call message,
// the second arriving while the first still waits, so it goes to a waiter
// too rather than risk the drain waiting for a readiness the first took.
// Each must pass on one System-Call message, and the kernel run each once.
func TestGateBehindAWaiterPasses(t *testing.T) {
	h := newHarness(t,
		supervisor.Config{CheckSeq: true, KillOnViolation: true, Epoch: time.Second},
		Config{Lease: 10 * time.Second})
	nc, pid := h.rawSession(t)
	writeBurst(t, nc, ipc.Message{Op: ipc.OpGateEnter, PID: pid, Arg1: 3, Arg2: 1})
	time.Sleep(20 * time.Millisecond) // gate 1 waits in the kernel
	writeBurst(t, nc, ipc.Message{Op: ipc.OpSyscall, PID: pid, Seq: 1, Arg1: 3}, ipc.Message{Op: ipc.OpGateEnter, PID: pid, Arg1: 3, Arg2: 2})
	dec := ipc.NewFrameDecoder(nc)
	first := readUntil(t, nc, dec, ipc.OpGateResult)
	writeBurst(t, nc, ipc.Message{Op: ipc.OpSyscall, PID: pid, Seq: 2, Arg1: 3})
	second := readUntil(t, nc, dec, ipc.OpGateResult)
	for _, v := range []ipc.Message{first[len(first)-1], second[len(second)-1]} {
		if v.Arg1 != GatePass {
			t.Fatalf("verdict %+v, want pass", v)
		}
	}
	if st, _ := h.sys.Kernel().Stats(pid); st.Syscalls != 2 {
		t.Fatalf("kernel ran %d gates, want 2", st.Syscalls)
	}
	writeBurst(t, nc, ipc.Message{Op: ipc.OpGoodbye, PID: pid})
}

// TestGateVerdictReplayedAcrossResume: a client that loses its connection
// between a gate request and the verdict retransmits the request after the
// resume. The daemon must answer it from the verdict it stored — one
// gate-result, the kernel gate run once.
func TestGateVerdictReplayedAcrossResume(t *testing.T) {
	const ord = 7
	h := newHarness(t,
		supervisor.Config{CheckSeq: true, KillOnViolation: true},
		Config{Lease: 10 * time.Second})
	nc, pid := h.rawSession(t)
	token := h.session(pid).token
	request := ipc.Message{Op: ipc.OpGateEnter, PID: pid, Arg1: 3, Arg2: ord}
	writeBurst(t, nc, ipc.Message{Op: ipc.OpSyscall, PID: pid, Seq: 1, Arg1: 3}, request)
	nc.Close() // before the verdict is read
	waitFor(t, 5*time.Second, "gate run and connection severed", func() bool {
		st, _ := h.sys.Kernel().Stats(pid)
		return st.Syscalls == 1 && !h.connRow(pid).Connected
	})

	nc, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	writeBurst(t, nc, ipc.Message{Op: ipc.OpResume, PID: pid, Arg1: token})
	dec := ipc.NewFrameDecoder(nc)
	if got := readUntil(t, nc, dec, ipc.OpWelcome); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("resume answered %+v, want a welcome acking Seq 1", got)
	}
	// The heartbeat's ack marks the end of what the request brought back.
	writeBurst(t, nc, request, ipc.Message{Op: ipc.OpHeartbeat, PID: pid, Arg1: 1})
	verdicts := 0
	for _, m := range readUntil(t, nc, dec, ipc.OpHeartbeatAck) {
		if m.Op == ipc.OpGateResult {
			if m.Arg1 != GatePass || m.Arg3 != ord {
				t.Fatalf("verdict %+v, want pass for gate %d", m, ord)
			}
			verdicts++
		}
	}
	if verdicts != 1 {
		t.Fatalf("%d verdicts on the resumed connection, want 1", verdicts)
	}
	if st, _ := h.sys.Kernel().Stats(pid); st.Syscalls != 1 {
		t.Fatalf("kernel ran %d gates, want 1: the retransmitted request was run again", st.Syscalls)
	}
	writeBurst(t, nc, ipc.Message{Op: ipc.OpGoodbye, PID: pid})
}

// hqdClient dials a sealed client into an in-process daemon configured as hqd
// is by default — its policy chain (the default set and hmac), sequence
// checking, metrics and a flight recorder — over a Unix socket.
func hqdClient(tb testing.TB) *Client {
	tb.Helper()
	factory, err := policy.SetFactory(append(append([]string{}, policy.DefaultSet...), "hmac")...)
	if err != nil {
		tb.Fatal(err)
	}
	m := telemetry.New(0)
	h := newHarness(tb,
		supervisor.Config{Policies: factory, KillOnViolation: true, CheckSeq: true, Metrics: m, FlightRecorder: 256},
		Config{Lease: 10 * time.Second, Metrics: m})
	sock := filepath.Join(tb.TempDir(), "hqd.sock")
	if _, err := h.srv.Listen("unix", sock); err != nil {
		tb.Fatal(err)
	}
	c, err := Dial(context.Background(), ClientConfig{Network: "unix", Addr: sock})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() }) // before the harness's Shutdown
	return c
}

// gateRoundTrip is one request of a monitored program: 16 messages, the
// System-Call message and the gate.
func gateRoundTrip(c *Client, s ipc.Sender) error {
	for i := 0; i < 16; i++ {
		if err := s.Send(counterInc); err != nil {
			return err
		}
	}
	if err := s.Send(ipc.Message{Op: ipc.OpSyscall, Arg1: 3}); err != nil {
		return err
	}
	return c.SyscallEnter(c.PID(), 3)
}

// TestGateRoundTripAllocatesNothing: a whole gated request — sealed sends,
// the writev, the daemon's read, delivery, the kernel gate, the verdict and
// its hand-off to the caller — allocates nothing, on either side.
func TestGateRoundTripAllocatesNothing(t *testing.T) {
	c := hqdClient(t)
	s := c.Sender()
	var failed error
	run := func() {
		if err := gateRoundTrip(c, s); err != nil {
			failed = err
		}
	}
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("%v allocations per gated request, want 0", n)
	}
	if failed != nil {
		t.Fatal(failed)
	}
}

// idleGaps are the pauses the round-trip benchmarks take between requests:
// none, and net_gate's 300 µs, which outlasts every spin budget on the path,
// so each request pays the wake-ups an idle program's system call does.
var idleGaps = []struct {
	name string
	gap  time.Duration
}{{"idle=0", 0}, {"idle=300us", 300 * time.Microsecond}}

// roundTrips times b.N calls of op in a closed loop, pausing gap before each
// with the timer stopped, and reports their p50 and p90.
func roundTrips(b *testing.B, gap time.Duration, op func() error) {
	lat := make([]time.Duration, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range lat {
		if gap > 0 {
			b.StopTimer()
			time.Sleep(gap)
			b.StartTimer()
		}
		start := time.Now()
		if err := op(); err != nil {
			b.Fatal(err)
		}
		lat[i] = time.Since(start)
	}
	b.StopTimer()
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)/2])/1e3, "p50-us")
	b.ReportMetric(float64(lat[len(lat)*9/10])/1e3, "p90-us")
}

// BenchmarkGateRoundTrip measures one gated request against an in-process
// daemon with hqd's sealed chain, over a Unix socket.
func BenchmarkGateRoundTrip(b *testing.B) {
	c := hqdClient(b)
	s := c.Sender()
	for _, g := range idleGaps {
		b.Run(g.name, func(b *testing.B) {
			roundTrips(b, g.gap, func() error { return gateRoundTrip(c, s) })
		})
	}
}

// BenchmarkUnixRoundTrip is the floor under BenchmarkGateRoundTrip: one
// 48-byte frame to a goroutine across a Unix socket and the same frame back,
// with no framing, verifier or gate around it.
func BenchmarkUnixRoundTrip(b *testing.B) {
	sock := filepath.Join(b.TempDir(), "pingpong.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var frame [ipc.MessageSize]byte
		for {
			if _, err := io.ReadFull(conn, frame[:]); err != nil {
				return
			}
			if _, err := conn.Write(frame[:]); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("unix", sock)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var frame [ipc.MessageSize]byte
	for _, g := range idleGaps {
		b.Run(g.name, func(b *testing.B) {
			roundTrips(b, g.gap, func() error {
				if _, err := c.Write(frame[:]); err != nil {
					return err
				}
				_, err := io.ReadFull(c, frame[:])
				return err
			})
		})
	}
}
