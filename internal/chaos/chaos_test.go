package chaos

import (
	"encoding/json"
	"io"
	"math/bits"
	"net"
	"strings"
	"testing"
	"time"

	"herqules/internal/ipc"
)

// stream builds a well-formed message stream the way a backend would emit
// it: sequence numbers assigned in send order, one process.
func stream(pid int32, n int) []ipc.Message {
	ms := make([]ipc.Message, n)
	for i := range ms {
		ms[i] = ipc.Message{Op: ipc.OpCounterInc, PID: pid, Arg1: uint64(i), Seq: uint64(i + 1)}
	}
	return ms
}

// drainAll pulls the entire faulted stream; any receive error is fatal.
func drainAll(t *testing.T, r ipc.Receiver) []ipc.Message {
	t.Helper()
	var got []ipc.Message
	buf := make([]ipc.Message, 16)
	for {
		n, ok, err := r.RecvBatch(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			t.Fatalf("receive error: %v", err)
		}
		if !ok {
			return got
		}
	}
}

func TestZeroRatesArePassthrough(t *testing.T) {
	inj := NewInjector(1) // no options: every rate zero
	msgs := stream(7, 500)
	got := drainAll(t, inj.Receiver(ipc.NewReplay(msgs)))
	if len(got) != len(msgs) {
		t.Fatalf("passthrough length = %d, want %d", len(got), len(msgs))
	}
	for i := range got {
		if got[i] != msgs[i] {
			t.Fatalf("message %d mutated: got %v want %v", i, got[i], msgs[i])
		}
	}
	if c := inj.Counts(); c.Total() != 0 {
		t.Fatalf("zero-rate injector fired faults: %v", c)
	}
}

func TestDropLeavesSequenceGaps(t *testing.T) {
	inj := NewInjector(42, WithDrop(0.2))
	msgs := stream(7, 1000)
	got := drainAll(t, inj.Receiver(ipc.NewReplay(msgs)))
	c := inj.Counts()
	if c[FaultDrop] == 0 {
		t.Fatal("20% drop over 1000 messages fired nothing")
	}
	if len(got)+int(c[FaultDrop]) != len(msgs) {
		t.Fatalf("len(got)=%d + dropped=%d != %d", len(got), c[FaultDrop], len(msgs))
	}
	// Survivors keep their original Seq, so every drop is a visible gap.
	last := uint64(0)
	gaps := 0
	for _, m := range got {
		if m.Seq <= last {
			t.Fatalf("drop-only schedule reordered: seq %d after %d", m.Seq, last)
		}
		if m.Seq != last+1 {
			gaps++
		}
		last = m.Seq
	}
	if gaps == 0 {
		t.Fatal("drops left no sequence gaps")
	}
}

func TestDuplicateRepeatsExactMessage(t *testing.T) {
	inj := NewInjector(3, WithDuplicate(0.1))
	msgs := stream(9, 1000)
	got := drainAll(t, inj.Receiver(ipc.NewReplay(msgs)))
	c := inj.Counts()
	if c[FaultDuplicate] == 0 {
		t.Fatal("10% duplication over 1000 messages fired nothing")
	}
	if len(got) != len(msgs)+int(c[FaultDuplicate]) {
		t.Fatalf("len(got)=%d, want %d originals + %d dups", len(got), len(msgs), c[FaultDuplicate])
	}
	dups := 0
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			dups++
		}
	}
	if dups != int(c[FaultDuplicate]) {
		t.Fatalf("found %d adjacent exact duplicates, counter says %d", dups, c[FaultDuplicate])
	}
}

func TestReorderBoundedByWindow(t *testing.T) {
	const window = 4
	inj := NewInjector(11, WithReorder(0.15, window))
	msgs := stream(5, 2000)
	got := drainAll(t, inj.Receiver(ipc.NewReplay(msgs)))
	if len(got) != len(msgs) {
		t.Fatalf("reorder changed message count: %d != %d", len(got), len(msgs))
	}
	if inj.Counts()[FaultReorder] == 0 {
		t.Fatal("15% reorder over 2000 messages fired nothing")
	}
	// Every message may arrive at most `window` positions later than some
	// message sent after it — and at least one actually does.
	displaced := 0
	for i, m := range got {
		lag := int(m.Seq) - 1 - i // negative when delivered late
		if lag < -(window + 1) {
			t.Fatalf("message seq=%d delivered %d positions late, window is %d", m.Seq, -lag, window)
		}
		if lag < 0 {
			displaced++
		}
	}
	if displaced == 0 {
		t.Fatal("reorder fired but no message was displaced")
	}
}

func TestCorruptFlipsExactlyOneBit(t *testing.T) {
	inj := NewInjector(8, WithCorrupt(0.1))
	msgs := stream(2, 1000)
	got := drainAll(t, inj.Receiver(ipc.NewReplay(msgs)))
	if len(got) != len(msgs) {
		t.Fatalf("corruption changed message count: %d != %d", len(got), len(msgs))
	}
	c := inj.Counts()
	if c[FaultCorrupt] == 0 {
		t.Fatal("10% corruption over 1000 messages fired nothing")
	}
	flipped := 0
	for i := range got {
		d := bits.OnesCount64(got[i].Arg1^msgs[i].Arg1) +
			bits.OnesCount64(got[i].Arg2^msgs[i].Arg2) +
			bits.OnesCount64(got[i].Arg3^msgs[i].Arg3) +
			bits.OnesCount64(got[i].Seq^msgs[i].Seq)
		switch d {
		case 0:
		case 1:
			flipped++
		default:
			t.Fatalf("message %d has %d flipped bits, want exactly 1", i, d)
		}
		if got[i].Op != msgs[i].Op || got[i].PID != msgs[i].PID {
			t.Fatalf("corruption touched Op/PID of message %d", i)
		}
	}
	if flipped != int(c[FaultCorrupt]) {
		t.Fatalf("%d messages corrupted, counter says %d", flipped, c[FaultCorrupt])
	}
}

func TestStallDelaysButDeliversEverything(t *testing.T) {
	inj := NewInjector(29, WithStall(1.0, 2*time.Millisecond))
	msgs := stream(6, 64)
	start := time.Now()
	got := drainAll(t, inj.Receiver(ipc.NewReplay(msgs)))
	if len(got) != len(msgs) {
		t.Fatalf("stall lost messages: %d != %d", len(got), len(msgs))
	}
	if inj.Counts()[FaultStall] == 0 {
		t.Fatal("100% stall rate fired nothing")
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Fatalf("stall did not stall: drained in %v", elapsed)
	}
}

// TestDeterministicSchedule is the reproducibility contract: same seed, same
// wrapping order, same streams → identical fault counts and schedule hash;
// different seed → (overwhelmingly) different schedule.
func TestDeterministicSchedule(t *testing.T) {
	run := func(seed uint64) (Counts, uint64) {
		inj := NewInjector(seed,
			WithDrop(0.05), WithDuplicate(0.05), WithReorder(0.05, 8),
			WithCorrupt(0.05))
		// Two streams, wrapped in a fixed order, drained with different
		// batch sizes to prove batching cannot perturb the schedule.
		for i, bufSize := range []int{3, 17} {
			r := inj.Receiver(ipc.NewReplay(stream(int32(i+1), 700)))
			buf := make([]ipc.Message, bufSize)
			for {
				_, ok, err := r.RecvBatch(buf)
				if err != nil {
					t.Fatalf("receive error: %v", err)
				}
				if !ok {
					break
				}
			}
		}
		return inj.Counts(), inj.ScheduleHash()
	}
	c1, h1 := run(0xfeedface)
	c2, h2 := run(0xfeedface)
	if c1 != c2 {
		t.Fatalf("same seed, different counts:\n  %v\n  %v", c1, c2)
	}
	if h1 != h2 {
		t.Fatalf("same seed, different schedule hash: %#x != %#x", h1, h2)
	}
	if c1.Total() == 0 {
		t.Fatal("schedule fired no faults at all")
	}
	_, h3 := run(0xdeadbeef)
	if h3 == h1 {
		t.Fatalf("different seeds produced the same schedule hash %#x", h1)
	}

	// The connection arm: conn faults are decided per write, outside the
	// schedule hash, so what pins them is what reaches the far end. Each
	// injector wraps the same sequence of pipes, in one order, and every
	// pipe takes the same frame-aligned writes.
	wire := func(seed uint64) (string, Counts) {
		inj := NewInjector(seed, WithConnDrop(0.05), WithConnDropAtBoundary(0.05),
			WithConnStall(0.05, time.Microsecond))
		var far []byte
		for c := 0; c < 32; c++ {
			near, end := net.Pipe()
			got := make(chan []byte)
			go func() {
				b, _ := io.ReadAll(end)
				got <- b
			}()
			w := inj.Conn(near)
			for k := 1; k <= 8; k++ {
				msgs := stream(int32(c), k)
				buf := make([]byte, k*ipc.MessageSize)
				for i, m := range msgs {
					m.Encode(buf[i*ipc.MessageSize:])
				}
				_, _ = w.Write(buf) // a dropped conn fails this and every later write
			}
			w.Close()
			far = append(far, <-got...)
			far = append(far, '|')
		}
		return string(far), inj.Counts()
	}
	w1, n1 := wire(0xfeedface)
	w2, n2 := wire(0xfeedface)
	if w1 != w2 || n1 != n2 {
		t.Fatalf("same seed, different wire: %d vs %d far-end bytes, counts\n  %v\n  %v", len(w1), len(w2), n1, n2)
	}
	if n1[FaultConnDrop] == 0 || n1[FaultConnDropBoundary] == 0 || n1[FaultConnStall] == 0 {
		t.Fatalf("a conn fault never fired over 256 writes: %v", n1)
	}
	if w3, n3 := wire(0xdeadbeef); w3 == w1 && n3 == n1 {
		t.Fatal("different seeds produced the same far-end bytes and counts")
	}
}

// TestSenderForwardsPIDRegister guards the supervisor wiring: hiding the
// register would leave hardware-backed transports with unstamped messages.
func TestSenderForwardsPIDRegister(t *testing.T) {
	inj := NewInjector(1)
	rec := &recordingRegister{}
	s := inj.Sender(rec)
	reg, ok := s.(ipc.PIDRegister)
	if !ok {
		t.Fatal("chaos sender does not forward PIDRegister")
	}
	reg.SetPID(1234)
	if rec.pid != 1234 {
		t.Fatalf("SetPID not forwarded: got %d", rec.pid)
	}
}

type recordingRegister struct {
	pid int32
}

func (r *recordingRegister) Send(ipc.Message) error { return nil }
func (r *recordingRegister) Close() error           { return nil }
func (r *recordingRegister) SetPID(pid int32)       { r.pid = pid }

// TestCountsJSONKeepsItsKeys pins the JSON shape soak artifacts carry: one
// key per live fault class, named as before Counts became an array, the
// retired numbers skipped, and a round trip that loses nothing.
func TestCountsJSONKeepsItsKeys(t *testing.T) {
	var c Counts
	for f := range c {
		if Fault(f) != FaultNone && faultNames[f] != "" {
			c[f] = uint64(f) * 3
		}
	}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"dropped":3,"duplicated":6,"reordered":9,"corrupted":12,"delayed":15,` +
		`"stalls":24,"conn_drops":27,"conn_drop_boundaries":30,"conn_stalls":33}`
	if string(data) != want {
		t.Fatalf("Counts JSON =\n  %s\nwant\n  %s", data, want)
	}
	var back Counts
	if err := json.Unmarshal(data, &back); err != nil || back != c {
		t.Fatalf("round trip = %v (%v), want %v", back, err, c)
	}
	for _, bad := range []string{`{"dup_hellos":1}`, `{"send_errors":1}`, `{"recv_errors":1}`, `{"":1}`} {
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Fatalf("unknown or retired fault key %s decoded without error", bad)
		}
	}
	if got := c.String(); !strings.HasPrefix(got, "dropped=3 duplicated=6 ") ||
		!strings.Contains(got, " delayed=15 stalls=24 ") || !strings.HasSuffix(got, " conn_stalls=33") {
		t.Fatalf("Counts.String() = %q", got)
	}
	if got := Fault(6).String(); got != "fault(6)" {
		t.Errorf("retired Fault(6).String() = %q, want fault(6)", got)
	}
}

// TestSchedulePinned pins the schedule itself: one fixed seed, every
// per-message fault on, two streams each sent through a fault sender and
// replayed through a fault receiver. Any change to draw, to the fault
// numbering or to the order decisions are taken in moves the hash or the
// counts and fails here.
func TestSchedulePinned(t *testing.T) {
	if FaultStall != 8 || FaultConnDrop != 9 || FaultConnDropBoundary != 10 || FaultConnStall != 11 {
		t.Fatalf("fault classes renumbered: stall=%d conn_drop=%d conn_drop_boundary=%d conn_stall=%d",
			FaultStall, FaultConnDrop, FaultConnDropBoundary, FaultConnStall)
	}
	inj := NewInjector(0xda0517,
		WithDrop(0.02), WithDuplicate(0.02), WithReorder(0.02, 4), WithCorrupt(0.02),
		WithDelay(0.02, time.Nanosecond))
	for pid := int32(1); pid <= 2; pid++ {
		var sent []ipc.Message
		s := inj.Sender(ipc.SenderFunc(func(m ipc.Message) error { sent = append(sent, m); return nil }))
		for _, m := range stream(pid, 1000) {
			if err := s.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		drainAll(t, inj.Receiver(ipc.NewReplay(sent)))
	}
	const wantHash = 0x980a558435655ca3
	want := Counts{FaultDrop: 47, FaultDuplicate: 50, FaultReorder: 39, FaultCorrupt: 35, FaultDelay: 37}
	if h, c := inj.ScheduleHash(), inj.Counts(); h != wantHash || c != want {
		t.Fatalf("schedule moved: hash %#x, counts %v; want %#x, %v", h, c, uint64(wantHash), want)
	}
}
