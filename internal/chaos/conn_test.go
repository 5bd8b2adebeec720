package chaos

import (
	"errors"
	"fmt"
	"net"
	"os"
	"syscall"
	"testing"

	"herqules/internal/ipc"
)

// socketpair returns both ends of a real AF_UNIX/SOCK_STREAM socketpair as
// net.Conns — the exact transport class the fd-framing layer was built for,
// with real kernel short reads and writes, unlike net.Pipe's synchronous
// in-process rendezvous.
func socketpair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatalf("socketpair: %v", err)
	}
	mk := func(fd int, name string) net.Conn {
		f := os.NewFile(uintptr(fd), name)
		defer f.Close() // FileConn dups the fd
		c, err := net.FileConn(f)
		if err != nil {
			t.Fatalf("FileConn: %v", err)
		}
		return c
	}
	a := mk(fds[0], "sp-a")
	b := mk(fds[1], "sp-b")
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestFrameCarryOverSocketpair drives the partial-frame carry across real
// kernel socket reads: the writer deliberately lands byte counts that end
// mid-frame, and the decoder must (a) report the carry, (b) reassemble every
// frame bit-exactly, and (c) never surface a partial frame as data.
func TestFrameCarryOverSocketpair(t *testing.T) {
	w, r := socketpair(t)
	dec := ipc.NewFrameDecoder(r)

	const frames = 64
	// Encode the whole stream, then write it in chunk sizes that are
	// coprime with the 48-byte frame so nearly every read ends mid-frame.
	raw := make([]byte, 0, frames*ipc.MessageSize)
	var buf [ipc.MessageSize]byte
	for i := 0; i < frames; i++ {
		m := ipc.Message{Op: ipc.OpCounterInc, PID: 9, Arg1: uint64(i), Seq: uint64(i + 1)}
		m.Encode(buf[:])
		raw = append(raw, buf[:]...)
	}

	// Phase 1: exactly one and a half frames. The decoder must deliver the
	// whole frame and hold the half back as carry.
	if _, err := w.Write(raw[:72]); err != nil {
		t.Fatal(err)
	}
	var out [frames]ipc.Message
	n, ok, err := dec.Decode(out[:])
	if err != nil || !ok || n != 1 {
		t.Fatalf("phase 1 decode: n=%d ok=%t err=%v, want 1 true nil", n, ok, err)
	}
	if !dec.Carried() {
		t.Fatal("decoder reports no carry with 24 trailing bytes buffered")
	}
	if dec.Buffered() != 0 {
		t.Fatalf("buffered whole frames = %d, want 0 (only the carry remains)", dec.Buffered())
	}

	// Phase 2: the rest of the stream from a concurrent writer, in 31-byte
	// chunks (gcd(31,48)=1), so frame boundaries and read boundaries stay
	// misaligned the whole way down.
	done := make(chan error, 1)
	go func() {
		rest := raw[72:]
		for len(rest) > 0 {
			k := 31
			if k > len(rest) {
				k = len(rest)
			}
			if _, err := w.Write(rest[:k]); err != nil {
				done <- err
				return
			}
			rest = rest[k:]
		}
		done <- w.Close()
	}()

	got := 1
	for got < frames {
		n, ok, err := dec.Decode(out[got:])
		if err != nil {
			t.Fatalf("decode after %d frames: %v", got, err)
		}
		got += n
		if !ok {
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if got != frames {
		t.Fatalf("decoded %d frames, want %d", got, frames)
	}
	for i := 0; i < got; i++ {
		want := ipc.Message{Op: ipc.OpCounterInc, PID: 9, Arg1: uint64(i), Seq: uint64(i + 1)}
		if out[i] != want {
			t.Fatalf("frame %d = %+v, want %+v", i, out[i], want)
		}
	}
	// Clean EOF on an exhausted stream: no error, no phantom frame.
	n, ok, err = dec.Decode(out[:])
	if n != 0 || ok || err != nil {
		t.Fatalf("EOF decode: n=%d ok=%t err=%v, want 0 false nil", n, ok, err)
	}
}

// TestChaosConnDropTruncatesExactlyMidFrame injects FaultConnDrop on a real
// socketpair: the chaos wrapper lets half the frames of the write and half of
// the next frame escape, and kills the transport. The decoder must deliver
// the whole frames and classify the stream end as a truncation (an integrity
// violation carrying the trailing byte count), not as a clean EOF — a
// silently shortened stream is precisely what fail-closed must catch. A
// coalesced write of an even number of frames is the case that matters: half
// its bytes is a frame boundary.
func TestChaosConnDropTruncatesExactlyMidFrame(t *testing.T) {
	for _, frames := range []int{1, 2, 341} { // 341: one hqnet client burst
		t.Run(fmt.Sprintf("%d-frame-write", frames), func(t *testing.T) {
			w, r := socketpair(t)
			inj := NewInjector(42, WithConnDrop(1))
			burst := make([]byte, frames*ipc.MessageSize)
			for i := 0; i < frames; i++ {
				ipc.Message{Op: ipc.OpCounterInc, PID: 3, Seq: uint64(i + 1)}.Encode(burst[i*ipc.MessageSize:])
			}
			if _, err := inj.Conn(w).Write(burst); err == nil {
				t.Fatal("chaos-dropped write reported success")
			}

			dec := ipc.NewFrameDecoder(r)
			out := make([]ipc.Message, frames)
			got := 0
			var derr error
			for derr == nil {
				n, ok, err := dec.Decode(out[got:])
				got, derr = got+n, err
				if !ok && err == nil {
					t.Fatalf("clean end of stream after %d frames, want a truncation", got)
				}
			}
			if got != frames/2 {
				t.Fatalf("decoded %d whole frames before the cut, want %d", got, frames/2)
			}
			var trunc *ipc.TruncatedFrameError
			if !errors.As(derr, &trunc) {
				t.Fatalf("decode error = %v, want TruncatedFrameError", derr)
			}
			if trunc.Trailing != ipc.MessageSize/2 {
				t.Fatalf("trailing = %d, want %d (half a frame)", trunc.Trailing, ipc.MessageSize/2)
			}
			if !errors.Is(derr, ipc.ErrIntegrity) {
				t.Fatal("truncation does not unwrap to ipc.ErrIntegrity")
			}
			if got := inj.Counts()[FaultConnDrop]; got != 1 {
				t.Fatalf("conn drops = %d, want 1", got)
			}
		})
	}
}

// TestChaosConnDropAtFrameBoundary injects FaultConnDropBoundary on a real
// socketpair: the chaos wrapper cuts a frame-aligned burst exactly at a frame
// boundary and kills the transport. Unlike the mid-frame drop, the far side's
// decoder must see a clean, carry-free end-of-stream — the loss is invisible
// to framing and only the session layer (lease expiry, CheckSeq gap) can
// catch it. The test first exercises the partial-frame carry over the same
// socket to prove the decoder distinguishes the two endings.
func TestChaosConnDropAtFrameBoundary(t *testing.T) {
	w, r := socketpair(t)
	inj := NewInjector(99, WithConnDropAtBoundary(1))
	cw := inj.Conn(w)
	dec := ipc.NewFrameDecoder(r)

	const frames = 6
	raw := make([]byte, 0, frames*ipc.MessageSize)
	var buf [ipc.MessageSize]byte
	for i := 0; i < frames; i++ {
		m := ipc.Message{Op: ipc.OpCounterInc, PID: 5, Arg1: uint64(i), Seq: uint64(i + 1)}
		m.Encode(buf[:])
		raw = append(raw, buf[:]...)
	}

	// Phase 1: a frame and a half through the RAW socket (bypassing the
	// wrapper, which assumes frame-aligned writes). The decoder must hold
	// the half back as carry — this is the ending the boundary drop must
	// NOT look like.
	if _, err := w.Write(raw[:ipc.MessageSize+ipc.MessageSize/2]); err != nil {
		t.Fatal(err)
	}
	var out [frames]ipc.Message
	n, ok, err := dec.Decode(out[:])
	if err != nil || !ok || n != 1 {
		t.Fatalf("phase 1 decode: n=%d ok=%t err=%v, want 1 true nil", n, ok, err)
	}
	if !dec.Carried() {
		t.Fatal("decoder reports no carry with half a frame buffered")
	}

	// Phase 2: complete the carried frame through the raw socket.
	if _, err := w.Write(raw[ipc.MessageSize+ipc.MessageSize/2 : 2*ipc.MessageSize]); err != nil {
		t.Fatal(err)
	}
	if n, ok, err = dec.Decode(out[1:]); err != nil || !ok || n != 1 {
		t.Fatalf("phase 2 decode: n=%d ok=%t err=%v, want 1 true nil", n, ok, err)
	}

	// Phase 3+4: a 4-frame aligned burst through the chaos wrapper, decoded
	// concurrently (the -race value of a real socketpair). The wrapper lets
	// half the frames (2 of 4) escape, then closes the conn: the writer must
	// see the failure, the reader must drain exactly those 2 frames and then
	// hit a clean, carry-free EOF.
	werr := make(chan error, 1)
	go func() {
		_, err := cw.Write(raw[2*ipc.MessageSize:])
		werr <- err
	}()
	got := 2
	for {
		n, ok, err := dec.Decode(out[got:])
		if err != nil {
			t.Fatalf("decode after %d frames: %v (boundary drop must not surface truncation)", got, err)
		}
		got += n
		if !ok {
			break
		}
	}
	if err := <-werr; err == nil {
		t.Fatal("chaos boundary-dropped write reported success")
	}
	if got != 4 {
		t.Fatalf("decoded %d frames, want 4 (2 clean + 2 of the dropped burst)", got)
	}
	if dec.Carried() {
		t.Fatal("boundary drop left a carry: cut did not land on a frame boundary")
	}
	for i := 0; i < got; i++ {
		want := ipc.Message{Op: ipc.OpCounterInc, PID: 5, Arg1: uint64(i), Seq: uint64(i + 1)}
		if out[i] != want {
			t.Fatalf("frame %d = %+v, want %+v", i, out[i], want)
		}
	}
	if c := inj.Counts(); c[FaultConnDropBoundary] != 1 || c[FaultConnDrop] != 0 {
		t.Fatalf("counts = %+v, want exactly one boundary drop and no mid-frame drops", c)
	}
}
