package ipc

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
)

// writeLog records every Write it is handed. It takes no lock of its own:
// FrameWriter promises to serialize Writes, and the race detector holds it
// to that.
type writeLog struct {
	writes [][]byte
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

func testFrame(i int) Message {
	return Message{Op: OpCounterInc, PID: 4, Arg1: uint64(i), Seq: uint64(i + 1), Mac: uint64(i) * 0x9e3779b97f4a7c15}
}

// encodeFrames is n test frames in wire format, back to back.
func encodeFrames(n int) []byte {
	out := make([]byte, n*MessageSize)
	for i := 0; i < n; i++ {
		testFrame(i).Encode(out[i*MessageSize:])
	}
	return out
}

// TestFrameWriterOneFrameOneWrite: WriteMessage is one frame and one Write,
// allocates nothing, and concurrent callers (a session's drain goroutine and
// its gate goroutines share one writer) never split a frame or reorder one
// caller's frames. Run under -race.
func TestFrameWriterOneFrameOneWrite(t *testing.T) {
	const callers, perCaller = 4, 2000
	var log writeLog
	fw := NewFrameWriter(&log)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 1; i <= perCaller; i++ {
				m := Message{Op: OpCounterInc, PID: int32(c), Arg1: uint64(i), Arg2: ^uint64(i), Mac: uint64(c)<<32 | uint64(i)}
				if err := fw.WriteMessage(m); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	if len(log.writes) != callers*perCaller {
		t.Fatalf("%d writes for %d frames, want one each", len(log.writes), callers*perCaller)
	}
	var last [callers]uint64
	for _, w := range log.writes {
		if len(w) != MessageSize {
			t.Fatalf("a write of %d bytes, want one frame", len(w))
		}
		m, err := DecodeMessage(w)
		if err != nil {
			t.Fatalf("frame does not decode: %v", err)
		}
		c := int(m.PID)
		if c < 0 || c >= callers || m.Arg2 != ^m.Arg1 || m.Mac != uint64(c)<<32|m.Arg1 {
			t.Fatalf("frame %+v mixes fields of two frames", m)
		}
		if m.Arg1 != last[c]+1 {
			t.Fatalf("caller %d: frame %d arrived after frame %d", c, m.Arg1, last[c])
		}
		last[c] = m.Arg1
	}

	quiet := NewFrameWriter(io.Discard)
	if n := testing.AllocsPerRun(100, func() { _ = quiet.WriteMessage(testFrame(1)) }); n != 0 {
		t.Fatalf("WriteMessage allocates %v times per call, want 0", n)
	}
}

// countingReader hands out everything it has left, as much as fits, and
// counts the calls.
type countingReader struct {
	r     bytes.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestFrameDecoderServesOneReadAcrossCalls: a read takes what the staging
// buffer holds, whatever len(out) is, and Decode serves it behind the cursor
// without touching the stream again until less than a frame is left — the
// property the session's "ack when Buffered() == 0" rule stands on.
func TestFrameDecoderServesOneReadAcrossCalls(t *testing.T) {
	const staging, frames = 2730, 8000 // hqnet's burst: 2730 frames, 128 KiB
	src := &countingReader{}
	src.r.Reset(append(encodeFrames(frames), 0xAA, 0xBB)) // ends two bytes into a frame
	dec := NewFrameDecoder(src)
	dec.Grow(staging)

	out := make([]Message, 256)
	got, emptied := 0, 0
	for {
		n, ok, err := dec.Decode(out)
		for i, m := range out[:n] {
			if m != testFrame(got+i) {
				t.Fatalf("frame %d decoded as %+v", got+i, m)
			}
		}
		got += n
		if err != nil {
			var trunc *TruncatedFrameError
			if !errors.As(err, &trunc) || trunc.Trailing != 2 {
				t.Fatalf("stream end: %v, want 2 trailing bytes", err)
			}
			break
		}
		if !ok {
			t.Fatal("clean end of a stream that stops mid-frame")
		}
		if want := min(256, staging-(got-n)%staging, frames-(got-n)); n != want {
			t.Fatalf("call after %d frames returned %d, want %d", got-n, n, want)
		}
		if dec.Buffered() == 0 {
			emptied++
		}
	}
	if got != frames {
		t.Fatalf("decoded %d frames, want %d", got, frames)
	}
	// Three reads bring frames (2730, 2730, 2540 and the two stray bytes), each
	// served by eleven or ten calls of which the last empties the staging
	// buffer; the fourth read finds the end of the stream.
	if src.reads != 4 || emptied != 3 {
		t.Fatalf("%d reads, %d calls that left no whole frame staged; want 4 and 3", src.reads, emptied)
	}
}

// TestFrameDecoderPoisonedStreamStaysPoisoned: an undecodable frame ends the
// stream with the frames before it delivered, and every later call fails on
// the same frame again — fdReceiver keeps its descriptor and relies on it.
func TestFrameDecoderPoisonedStreamStaysPoisoned(t *testing.T) {
	wire := encodeFrames(5)
	copy(wire[3*MessageSize:], bytes.Repeat([]byte{0xff}, 4)) // frame 3: no such op
	dec := NewFrameDecoder(bytes.NewReader(wire))
	out := make([]Message, 8)
	n, ok, err := dec.Decode(out)
	if n != 3 || ok || !errors.Is(err, ErrIntegrity) {
		t.Fatalf("first call: n=%d ok=%t err=%v, want 3 false ErrIntegrity", n, ok, err)
	}
	want := "ipc: frame decode failed: ipc: invalid op code 4294967295: " + ErrIntegrity.Error()
	if err.Error() != want {
		t.Fatalf("error text %q, want %q", err, want)
	}
	for i := 0; i < 3; i++ {
		n, ok, again := dec.Decode(out)
		if n != 0 || ok || again == nil || again.Error() != err.Error() {
			t.Fatalf("call %d after the failure: n=%d ok=%t err=%v, want the same failure", i+2, n, ok, again)
		}
	}
	if dec.Buffered() != 2 {
		t.Fatalf("Buffered = %d with the bad frame and one behind it staged, want 2", dec.Buffered())
	}
}

// BenchmarkFrameDecoder is the daemon's receive path below the session: 65 536
// pre-encoded frames through one hqnet client burst of staging (2730 frames),
// 256 per call, the sizes session.RecvBatch runs with. -benchmem must read 0
// allocs/op.
func BenchmarkFrameDecoder(b *testing.B) {
	const frames = 1 << 16
	wire := encodeFrames(frames)
	var src bytes.Reader
	dec := NewFrameDecoder(&src)
	dec.Grow(2730)
	out := make([]Message, 256)
	b.SetBytes(MessageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		src.Reset(wire)
		for {
			n, ok, err := dec.Decode(out)
			if done += n; !ok {
				if err != nil || n != 0 {
					b.Fatalf("n=%d err=%v", n, err)
				}
				break
			}
		}
	}
}
