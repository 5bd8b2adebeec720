package hqnet

import (
	"context"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/supervisor"
)

// numSessionOps is how many ops the connection plane owns, OpHello first.
const numSessionOps = uint32(ipc.OpGoodbye - ipc.OpHello + 1)

// foldOp maps a frame's raw op word onto a valid op: an even word is a
// session op, an odd one a data op, so about half of what the fuzzer writes
// is control traffic.
func foldOp(w uint32) ipc.Op {
	if w&1 == 0 {
		return ipc.OpHello + ipc.Op((w>>1)%numSessionOps)
	}
	return ipc.Op((w >> 1) % uint32(ipc.OpHello))
}

// fuzzFrame encodes m with the raw op word foldOp maps back to m.Op.
func fuzzFrame(m ipc.Message) []byte {
	b := make([]byte, ipc.MessageSize)
	m.Encode(b)
	w := uint32(m.Op)<<1 | 1
	if m.Op.IsSessionOp() {
		w = uint32(m.Op-ipc.OpHello) << 1
	}
	binary.LittleEndian.PutUint32(b, w)
	return b
}

// FuzzControlFrames drives the daemon's connection state machine — the
// handshake in serveConn and the session's filter behind it — with one
// connection of arbitrary frames per input, on a fresh System (kills on,
// CheckSeq on, 20 ms epoch) and a Server with a 10 ms lease. The input is
// cut into 48-byte frames, op words folded by foldOp and a zero PID read as
// the session's, and written in one piece over net.Pipe while a goroutine
// reads every reply. It fails on a panic, on a Shutdown that takes 5 s or
// leaves the connection open, on a reply op the daemon never sends, on a
// second Welcome, on more verified messages than the connection carried
// data frames the daemon may forward (the session PID's, before the goodbye
// or the frame that severs it: a control frame must never reach the policy
// chain), and on a process left active or a row left running after
// Shutdown.
func FuzzControlFrames(f *testing.F) {
	const pid = 101 // a fresh kernel's first PID
	hello := fuzzFrame(ipc.Message{Op: ipc.OpHello, Arg1: WireVersion})
	data := func(seq uint64, pid int32) []byte {
		return fuzzFrame(ipc.Message{Op: ipc.OpCounterInc, PID: pid, Arg1: 1, Seq: seq})
	}
	goodbye := fuzzFrame(ipc.Message{Op: ipc.OpGoodbye})
	script := func(frames ...[]byte) []byte {
		var b []byte
		for _, fr := range frames {
			b = append(b, fr...)
		}
		return b
	}
	// A forged resume; a duplicate HELLO after the welcome; a clean goodbye.
	f.Add(fuzzFrame(ipc.Message{Op: ipc.OpResume, Arg1: 0xbad0bad0}))
	f.Add(script(hello, hello))
	f.Add(script(hello, goodbye))
	f.Add(script(hello, data(1, 0), data(2, 0),
		fuzzFrame(ipc.Message{Op: ipc.OpSyscall, Arg1: 1, Seq: 3}),
		fuzzFrame(ipc.Message{Op: ipc.OpGateEnter, Arg1: 1, Arg2: 1}), goodbye))
	f.Add(script(hello, data(1, 0), data(2, pid+1), data(3, 0)))
	// A heartbeat, and a gate, as the first frame after the HELLO, stamped
	// with the stream's first Seq: both are answered, neither takes that
	// position, so the data frame behind is a gap, and only a control frame
	// kept as data lets both reach the policy chain.
	f.Add(script(hello, fuzzFrame(ipc.Message{Op: ipc.OpHeartbeat, Seq: 1}), data(2, 0), goodbye))
	f.Add(script(hello, fuzzFrame(ipc.Message{Op: ipc.OpGateEnter, Arg1: 1, Arg2: 1, Seq: 1}), data(2, 0), goodbye))

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 64*ipc.MessageSize {
			in = in[:64*ipc.MessageSize]
		}
		in = append([]byte(nil), in...)
		var frames []ipc.Message
		for off := 0; off+ipc.MessageSize <= len(in); off += ipc.MessageSize {
			fr := in[off : off+ipc.MessageSize]
			op := foldOp(binary.LittleEndian.Uint32(fr))
			binary.LittleEndian.PutUint32(fr, uint32(op))
			if binary.LittleEndian.Uint32(fr[4:]) == 0 {
				binary.LittleEndian.PutUint32(fr[4:], pid)
			}
			m, err := ipc.DecodeMessage(fr)
			if err != nil {
				t.Fatalf("folded frame does not decode: %v", err)
			}
			frames = append(frames, m)
		}
		// What the daemon may forward for pid: its data frames after the
		// HELLO, up to the goodbye or the first frame that severs.
		forwardable := uint64(0)
		if len(frames) > 0 && frames[0].Op == ipc.OpHello {
		scan:
			for _, m := range frames[1:] {
				switch {
				case m.Op == ipc.OpHeartbeat || m.Op == ipc.OpGateEnter:
				case m.Op.IsSessionOp() || m.PID != pid:
					break scan
				default:
					forwardable++
				}
			}
		}

		sys := supervisor.New(supervisor.Config{KillOnViolation: true, CheckSeq: true, Epoch: 20 * time.Millisecond})
		srv := NewServer(Config{Sys: sys, Lease: 10 * time.Millisecond})
		client, daemon := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.serveConn(daemon)
		}()
		replies := make(chan []ipc.Message, 1)
		go func() {
			var got []ipc.Message
			dec := ipc.NewFrameDecoder(client)
			buf := make([]ipc.Message, 64)
			for {
				n, ok, err := dec.Decode(buf)
				got = append(got, buf[:n]...)
				if !ok || err != nil {
					replies <- got
					return
				}
			}
		}()
		// A daemon that stops reading is cut off here; a hang behind it
		// shows as a Shutdown that does not return.
		_ = client.SetWriteDeadline(time.Now().Add(5 * time.Second))
		_, _ = client.Write(in)
		client.Close()
		<-served

		ctx, cancel := context.WithTimeout(context.Background(), 4*time.Second)
		defer cancel()
		stopped := make(chan error, 1)
		go func() { stopped <- srv.Shutdown(ctx) }()
		select {
		case err := <-stopped:
			if err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Shutdown did not return within 5 s")
		}

		var got []ipc.Message
		select {
		case got = <-replies:
		case <-time.After(5 * time.Second):
			t.Fatal("the daemon's end of the connection is still open after Shutdown")
		}
		welcomes := 0
		for _, m := range got {
			switch m.Op {
			case ipc.OpWelcome:
				if welcomes++; welcomes > 1 {
					t.Fatalf("second Welcome on one connection: %v", m)
				}
				if m.PID != pid {
					t.Fatalf("welcome for pid %d, want the fresh System's first pid %d", m.PID, pid)
				}
			case ipc.OpReject, ipc.OpSessionKey, ipc.OpAck, ipc.OpHeartbeatAck, ipc.OpGateResult, ipc.OpKillNotice:
			default:
				t.Fatalf("the daemon sent %v, an op it never sends", m)
			}
		}
		if h := sys.Health(); h.ActiveProcs != 0 {
			t.Fatalf("%d processes active after Shutdown", h.ActiveProcs)
		}
		for _, row := range sys.ProcStats() {
			if row.State == "running" {
				t.Fatalf("pid %d still running after Shutdown", row.PID)
			}
		}
		if n := sys.Stats().MessagesVerified; n > forwardable {
			t.Fatalf("%d messages verified, but the connection carried %d the daemon may forward", n, forwardable)
		}
	})
}
