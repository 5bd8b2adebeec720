package ipc

import (
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"herqules/internal/telemetry"
)

// fdFramingPair builds an instrumented fd channel over a raw pipe so tests
// can write arbitrary (including corrupt) bytes at the sender side.
func fdFramingPair(t *testing.T) (*os.File, *Channel, *telemetry.Metrics) {
	t.Helper()
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Skip("pipes unavailable")
	}
	m := telemetry.New(1)
	ch := &Channel{
		Sender:   &fdSender{w: pw, pending: new(atomic.Int64)},
		Receiver: newFDReceiver(pr, new(atomic.Int64)),
	}
	ch.EnableTelemetry(m)
	return pw, ch, m
}

func TestTruncatedFrameIsTerminalError(t *testing.T) {
	// A stream that ends mid-frame has lost (possibly violating) message
	// bytes: the receiver must surface a terminal integrity error — never
	// silently skip the trailing bytes, never panic — and count it.
	pw, ch, m := fdFramingPair(t)
	var frame [MessageSize]byte
	Message{Op: OpCounterInc, Arg1: 7, Seq: 1}.Encode(frame[:])
	if _, err := pw.Write(frame[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write(frame[:MessageSize/2]); err != nil { // torn frame
		t.Fatal(err)
	}
	pw.Close()

	buf := make([]Message, 4)
	k, ok, err := ch.Receiver.RecvBatch(buf)
	if k != 1 || err != nil {
		t.Fatalf("whole frame before truncation: k=%d ok=%t err=%v", k, ok, err)
	}
	k, ok, err = ch.Receiver.RecvBatch(buf)
	if k != 0 || ok || err == nil {
		t.Fatalf("truncated tail: k=%d ok=%t err=%v, want terminal error", k, ok, err)
	}
	if !errors.Is(err, ErrIntegrity) {
		t.Errorf("truncation error %v does not wrap ErrIntegrity", err)
	}
	if v := m.Snapshot().Counters["ipc.frame_errors"].Total; v != 1 {
		t.Errorf("ipc.frame_errors = %d, want 1", v)
	}
}

func TestGarbageBytesAreTerminalError(t *testing.T) {
	// Corruption inside a full-size frame (an op code no backend emits)
	// cannot be resynchronized — every later frame boundary is suspect. The
	// receiver must deliver the preceding intact frames, then fail terminally.
	pw, ch, m := fdFramingPair(t)
	var good [MessageSize]byte
	Message{Op: OpPointerDefine, Arg1: 0x10, Arg2: 0x20, Seq: 1}.Encode(good[:])
	garbage := make([]byte, MessageSize)
	for i := range garbage {
		garbage[i] = 0xff
	}
	if _, err := pw.Write(good[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write(garbage); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	buf := make([]Message, 4)
	k, ok, err := ch.Receiver.RecvBatch(buf)
	if err == nil {
		// Both frames arrived in one burst on most kernels; if the read tore
		// between them the first call returns the good frame cleanly.
		if k != 1 || buf[0].Seq != 1 {
			t.Fatalf("first burst: k=%d ok=%t err=%v", k, ok, err)
		}
		k, ok, err = ch.Receiver.RecvBatch(buf)
	} else if k != 1 || buf[0].Seq != 1 {
		t.Fatalf("intact frame preceding garbage not delivered: k=%d err=%v", k, err)
	}
	if ok || err == nil {
		t.Fatalf("garbage frame: ok=%t err=%v, want terminal error", ok, err)
	}
	if !errors.Is(err, ErrIntegrity) {
		t.Errorf("decode error %v does not wrap ErrIntegrity", err)
	}
	if v := m.Snapshot().Counters["ipc.frame_errors"].Total; v != 1 {
		t.Errorf("ipc.frame_errors = %d, want 1", v)
	}
}

// Jitter draws under its ceiling: positive, never above ceil, and not
// constant (otherwise it is not jitter and the reconnect stampede it exists
// to break re-forms).
func TestJitterStaysUnderCeiling(t *testing.T) {
	for _, ceil := range []time.Duration{1, time.Microsecond, time.Millisecond, 50 * time.Millisecond} {
		varied := false
		first := Jitter(ceil)
		for i := 0; i < 256; i++ {
			d := Jitter(ceil)
			if d <= 0 || d > ceil {
				t.Fatalf("Jitter(%v) = %v, outside (0, %v]", ceil, d, ceil)
			}
			if d != first {
				varied = true
			}
		}
		if !varied && ceil > 1 {
			t.Errorf("Jitter(%v) returned %v 257 times; jitter is not jittering", ceil, first)
		}
	}
}

func TestSpinWaitBoundsCPUBurn(t *testing.T) {
	// The LWC switch model must still wait out its calibrated duration, but a
	// long wait may not hot-loop: past the iteration budget the remainder is
	// slept, so the loop-iteration count — a proxy for cycles burned polling
	// time.Now — stays bounded no matter how large d is. (The old
	// implementation spun ~d/Gosched-latency iterations, pinning a core.)
	const wait = 50 * time.Millisecond
	start := time.Now()
	iters := spinWait(wait)
	elapsed := time.Since(start)
	if elapsed < wait {
		t.Errorf("spinWait returned after %v, want >= %v", elapsed, wait)
	}
	// One extra iteration is possible when Sleep wakes marginally early.
	if iters > spinIterBudget+8 {
		t.Errorf("spinWait burned %d iterations, budget is %d", iters, spinIterBudget)
	}
	// The typical in-calibration wait resolves within the spin phase.
	if iters := spinWait(time.Microsecond); iters > spinIterBudget+8 {
		t.Errorf("short wait burned %d iterations", iters)
	}
}
