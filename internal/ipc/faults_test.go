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
	if IsTransient(err) {
		t.Error("truncation classified transient: a retry would re-read a corrupt stream")
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
	if IsTransient(err) {
		t.Error("decode failure classified transient")
	}
	if v := m.Snapshot().Counters["ipc.frame_errors"].Total; v != 1 {
		t.Errorf("ipc.frame_errors = %d, want 1", v)
	}
}

func TestTransientClassification(t *testing.T) {
	base := errors.New("queue momentarily full")
	if !IsTransient(Transient(base)) {
		t.Error("Transient-wrapped error not classified transient")
	}
	if !errors.Is(Transient(base), base) {
		t.Error("Transient wrapper hides the underlying error from errors.Is")
	}
	if Transient(nil) != nil {
		t.Error("Transient(nil) != nil")
	}
	// Everything not explicitly wrapped is terminal — the enforcement path
	// fails closed on anything it cannot positively classify as retryable.
	for _, err := range []error{ErrClosed, ErrIntegrity, base,
		&ProcessError{PID: 1, Err: ErrIntegrity}} {
		if IsTransient(err) {
			t.Errorf("%v classified transient", err)
		}
	}
}

// flakySender fails the first n Sends transiently, then succeeds.
type flakySender struct {
	failures int
	attempts int
	sent     []Message
}

func (s *flakySender) Send(m Message) error {
	s.attempts++
	if s.attempts <= s.failures {
		return Transient(errors.New("flaky"))
	}
	s.sent = append(s.sent, m)
	return nil
}

func (s *flakySender) Close() error { return nil }

func TestSendWithRetryRecoversFromTransientFaults(t *testing.T) {
	s := &flakySender{failures: 2}
	if err := SendWithRetry(s, Message{Op: OpCounterInc}, 4); err != nil {
		t.Fatalf("retry within budget failed: %v", err)
	}
	if len(s.sent) != 1 || s.attempts != 3 {
		t.Errorf("sent=%d attempts=%d, want 1 message on the 3rd attempt", len(s.sent), s.attempts)
	}
}

func TestSendWithRetryExhaustionIsTerminal(t *testing.T) {
	s := &flakySender{failures: 1 << 30}
	err := SendWithRetry(s, Message{Op: OpCounterInc}, 3)
	if err == nil {
		t.Fatal("persistently failing sender reported success")
	}
	if s.attempts != 3 {
		t.Errorf("attempts = %d, want exactly 3", s.attempts)
	}
	// The exhausted budget converts the transient failure to a terminal one:
	// callers must not loop on it.
	if IsTransient(err) {
		t.Errorf("exhausted retry budget still transient: %v", err)
	}
	// A terminal error short-circuits the budget.
	s2 := &closedSender{}
	if err := SendWithRetry(s2, Message{}, 5); !errors.Is(err, ErrClosed) {
		t.Errorf("terminal error not returned immediately: %v", err)
	}
	if s2.attempts != 1 {
		t.Errorf("terminal error retried %d times", s2.attempts)
	}
}

type closedSender struct{ attempts int }

func (s *closedSender) Send(Message) error { s.attempts++; return ErrClosed }
func (s *closedSender) Close() error       { return nil }

func TestRetryBackoffIsBoundedAndMonotone(t *testing.T) {
	prev := time.Duration(0)
	for n := 1; n <= 64; n++ {
		d := RetryBackoff(n)
		if d <= 0 || d > RetryBackoffMax {
			t.Fatalf("RetryBackoff(%d) = %v, outside (0, %v]", n, d, RetryBackoffMax)
		}
		if d < prev {
			t.Fatalf("RetryBackoff(%d) = %v < RetryBackoff(%d) = %v", n, d, n-1, prev)
		}
		prev = d
	}
	if RetryBackoff(1000) != RetryBackoffMax {
		t.Error("large attempt counts must saturate at RetryBackoffMax")
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
