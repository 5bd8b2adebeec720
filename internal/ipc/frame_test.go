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
	err    error // returned by every Write once set
}

func (w *writeLog) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (w *writeLog) stream() []byte { return bytes.Join(w.writes, nil) }

func testFrame(i int) Message {
	return Message{Op: OpCounterInc, PID: 4, Arg1: uint64(i), Seq: uint64(i + 1), Mac: uint64(i) * 0x9e3779b97f4a7c15}
}

// perFrame is the reference the staged writer is compared against: every
// frame encoded on its own, in order.
func perFrame(msgs ...Message) []byte {
	out := make([]byte, len(msgs)*MessageSize)
	for i, m := range msgs {
		m.Encode(out[i*MessageSize:])
	}
	return out
}

// TestFrameWriterStagesAndWritesOnce: Stage touches the stream only when the
// staging buffer fills, Flush and WriteMessage put everything staged (plus
// WriteMessage's own frame, last) on it in one Write, and the byte stream is
// the per-frame writer's.
func TestFrameWriterStagesAndWritesOnce(t *testing.T) {
	var log writeLog
	fw := NewFrameWriter(&log)
	var sent []Message
	stage := func(n int) {
		for i := 0; i < n; i++ {
			m := testFrame(len(sent))
			sent = append(sent, m)
			if err := fw.Stage(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	write := func() {
		m := testFrame(len(sent))
		sent = append(sent, m)
		if err := fw.WriteMessage(m); err != nil {
			t.Fatal(err)
		}
	}

	if err := fw.Flush(); err != nil || len(log.writes) != 0 {
		t.Fatalf("Flush with nothing staged: err=%v, %d writes, want nil and 0", err, len(log.writes))
	}
	write() // nothing staged: one frame, one Write
	stage(3)
	if len(log.writes) != 1 {
		t.Fatalf("%d writes after staging 3 frames, want still 1", len(log.writes))
	}
	write() // 3 staged + 1
	stage(2)
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	stage(StageFrames - 1)
	if len(log.writes) != 3 {
		t.Fatalf("%d writes with the staging buffer one short of full, want 3", len(log.writes))
	}
	stage(1) // fills it
	stage(1)
	write()

	wantLens := []int{1, 4, 2, StageFrames, 2}
	if len(log.writes) != len(wantLens) {
		t.Fatalf("%d writes, want %d", len(log.writes), len(wantLens))
	}
	for i, w := range log.writes {
		if len(w) != wantLens[i]*MessageSize {
			t.Errorf("write %d carried %d bytes, want %d frames", i, len(w), wantLens[i])
		}
	}
	if !bytes.Equal(log.stream(), perFrame(sent...)) {
		t.Fatal("staged byte stream differs from the per-frame encoding")
	}
}

// TestFrameWriterAllocatesStagingOnFirstStage: a writer that only ever calls
// WriteMessage (every daemon-side writer) works out of the one frame inside
// the struct and allocates nothing.
func TestFrameWriterAllocatesStagingOnFirstStage(t *testing.T) {
	fw := NewFrameWriter(io.Discard)
	if n := testing.AllocsPerRun(100, func() { _ = fw.WriteMessage(testFrame(1)) }); n != 0 {
		t.Fatalf("WriteMessage allocates %v times per call, want 0", n)
	}
	if cap(fw.buf) != MessageSize {
		t.Fatalf("staging capacity %d bytes before the first Stage, want one frame", cap(fw.buf))
	}
	_ = fw.Stage(testFrame(2))
	if cap(fw.buf) != StageFrames*MessageSize {
		t.Fatalf("staging capacity %d bytes after Stage, want %d frames", cap(fw.buf), StageFrames)
	}
	if n := testing.AllocsPerRun(100, func() { _ = fw.Stage(testFrame(3)) }); n != 0 {
		t.Fatalf("Stage allocates %v times per call in steady state, want 0", n)
	}
}

// TestFrameWriterFailedWriteDropsStagedFrames: the staged bytes die with the
// stream they were meant for; nothing of them reaches a later Write.
func TestFrameWriterFailedWriteDropsStagedFrames(t *testing.T) {
	log := writeLog{err: errors.New("stream closed")}
	fw := NewFrameWriter(&log)
	_ = fw.Stage(testFrame(0))
	_ = fw.Stage(testFrame(1))
	if err := fw.Flush(); err == nil {
		t.Fatal("Flush onto a dead stream reported success")
	}
	log.err = nil
	if err := fw.WriteMessage(testFrame(2)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(log.stream(), perFrame(testFrame(2))) {
		t.Fatalf("stream carries %d bytes after a failed flush, want exactly the one later frame", len(log.stream()))
	}
}

// TestFrameWriterConcurrentStageAndWriteMessage: a data producer staging and
// control writers (heartbeat, gate) calling WriteMessage at the same time
// never split a frame, never lose one, and each caller's frames stay in the
// order it issued them. Run under -race.
func TestFrameWriterConcurrentStageAndWriteMessage(t *testing.T) {
	const callers, perCaller = 4, 3000
	var log writeLog
	fw := NewFrameWriter(&log)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 1; i <= perCaller; i++ {
				m := Message{Op: OpCounterInc, PID: int32(c), Arg1: uint64(i), Arg2: ^uint64(i), Mac: uint64(c)<<32 | uint64(i)}
				var err error
				if c == 0 {
					err = fw.Stage(m) // the data path
				} else {
					err = fw.WriteMessage(m) // heartbeats and gates
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}

	var last [callers]uint64
	for _, w := range log.writes {
		if len(w) == 0 || len(w)%MessageSize != 0 {
			t.Fatalf("a write of %d bytes: not whole frames", len(w))
		}
		for off := 0; off < len(w); off += MessageSize {
			m, err := DecodeMessage(w[off:])
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
	}
	for c, n := range last {
		if n != perCaller {
			t.Fatalf("caller %d: %d frames on the stream, want %d", c, n, perCaller)
		}
	}
}
