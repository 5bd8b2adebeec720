package telemetry

import (
	"testing"
	"time"
)

func TestFlightRecorderSizing(t *testing.T) {
	cases := []struct{ ask, want int }{
		{-1, MinFlightSlots},
		{0, MinFlightSlots},
		{1, MinFlightSlots},
		{MinFlightSlots, MinFlightSlots},
		{MinFlightSlots + 1, 2 * MinFlightSlots},
		{100, 128},
		{256, 256},
		{MaxFlightSlots + 1, MaxFlightSlots},
		{1 << 30, MaxFlightSlots},
	}
	for _, c := range cases {
		if got := NewFlightRecorder(c.ask).Cap(); got != c.want {
			t.Errorf("NewFlightRecorder(%d).Cap() = %d, want %d", c.ask, got, c.want)
		}
	}
}

// TestFlightRecorderWraparound pins the ring semantics: past capacity the
// oldest records are displaced, Records returns exactly the retained window
// oldest-first, and Total/Overwritten account for every stamp ever made.
func TestFlightRecorderWraparound(t *testing.T) {
	r := NewFlightRecorder(MinFlightSlots)
	n := uint64(r.Cap())
	total := 3*n + 5 // several laps, deliberately not slot-aligned
	for i := uint64(0); i < total; i++ {
		r.StampMessage(7, 2, i, i*i, FlightOK)
	}
	if got := r.Total(); got != total {
		t.Fatalf("Total = %d, want %d", got, total)
	}
	if got := r.Overwritten(); got != total-n {
		t.Fatalf("Overwritten = %d, want %d", got, total-n)
	}
	recs := r.Records()
	if len(recs) != int(n) {
		t.Fatalf("Records returned %d, want %d", len(recs), n)
	}
	for i, rec := range recs {
		wantSeq := total - n + uint64(i)
		if rec.Seq != wantSeq {
			t.Fatalf("record %d: Seq = %d, want %d (oldest-first ordering broken)", i, rec.Seq, wantSeq)
		}
		if rec.Kind != FlightMessage || rec.Code != FlightOK || rec.PID != 7 || rec.Op != 2 {
			t.Fatalf("record %d carries wrong fields: %+v", i, rec)
		}
		if rec.Nanos != 0 {
			t.Fatalf("message record %d has a wall-clock stamp (%d); the hot path must not read the clock", i, rec.Nanos)
		}
	}
}

// TestFlightRecorderPartialWindow covers the pre-wrap regime: fewer stamps
// than slots means Records returns exactly what was stamped and nothing was
// overwritten.
func TestFlightRecorderPartialWindow(t *testing.T) {
	r := NewFlightRecorder(64)
	for i := uint64(0); i < 5; i++ {
		r.StampMessage(1, 1, i, 0, FlightOK)
	}
	if got := r.Overwritten(); got != 0 {
		t.Fatalf("Overwritten = %d before the ring wrapped", got)
	}
	recs := r.Records()
	if len(recs) != 5 {
		t.Fatalf("Records returned %d, want 5", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i) {
			t.Fatalf("record %d: Seq = %d, want %d", i, rec.Seq, i)
		}
	}
}

func TestFlightRecorderFreeze(t *testing.T) {
	r := NewFlightRecorder(0)
	r.StampMessage(1, 1, 1, 0, FlightOK)
	r.StampEvent(1, FlightKilled, 0)
	if r.frozen {
		t.Fatal("recorder frozen before Freeze")
	}
	r.Freeze()
	if !r.frozen {
		t.Fatal("Freeze did not freeze")
	}
	total := r.Total()
	window := len(r.Records())

	// Every later stamp must be a no-op: the black box is closed.
	r.StampMessage(1, 1, 99, 0, FlightViolated)
	r.StampEvent(1, FlightGateStall, 123)
	r.Freeze() // idempotent
	if got := r.Total(); got != total {
		t.Fatalf("Total moved %d → %d after Freeze", total, got)
	}
	if got := len(r.Records()); got != window {
		t.Fatalf("window grew %d → %d after Freeze", window, got)
	}
	for _, rec := range r.Records() {
		if rec.Seq == 99 || rec.Code == FlightGateStall {
			t.Fatalf("post-freeze stamp landed in the ring: %+v", rec)
		}
	}
}

func TestFlightRecorderEventStamp(t *testing.T) {
	r := NewFlightRecorder(0)
	before := time.Now().UnixNano()
	r.StampEvent(42, FlightEpochExpired, 7)
	recs := r.Records()
	if len(recs) != 1 {
		t.Fatalf("Records returned %d, want 1", len(recs))
	}
	e := recs[0]
	if e.Kind != FlightLifecycle || e.Code != FlightEpochExpired || e.PID != 42 || e.Arg != 7 {
		t.Fatalf("lifecycle record fields wrong: %+v", e)
	}
	if e.Nanos < before || e.Nanos > time.Now().UnixNano() {
		t.Fatalf("lifecycle stamp %d outside the call window", e.Nanos)
	}
}

// TestStampMessageZeroAlloc is the contract the verifier hot path depends on:
// stamping is a slot store plus an increment, nothing else.
func TestStampMessageZeroAlloc(t *testing.T) {
	r := NewFlightRecorder(256)
	seq := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		r.StampMessage(1, 3, seq, seq^0xbeef, FlightOK)
		seq++
	}); allocs != 0 {
		t.Fatalf("StampMessage allocates %.1f per call, want 0", allocs)
	}
}

func TestFlightCodeString(t *testing.T) {
	if got := FlightSeqGap.String(); got != "seq-violation" {
		t.Errorf("FlightSeqGap.String() = %q", got)
	}
	if got := FlightPoisoned.String(); got != "poisoned" {
		t.Errorf("FlightPoisoned.String() = %q", got)
	}
	if got := FlightCode(200).String(); got != "code(200)" {
		t.Errorf("unknown code renders %q, want code(200)", got)
	}
}
