package chaos

import (
	"math/bits"
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

// drainAll pulls the entire faulted stream, retrying transient errors.
func drainAll(t *testing.T, r ipc.Receiver) []ipc.Message {
	t.Helper()
	var got []ipc.Message
	buf := make([]ipc.Message, 16)
	for {
		n, ok, err := r.RecvBatch(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			if ipc.IsTransient(err) {
				continue
			}
			t.Fatalf("terminal receive error: %v", err)
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
	if c.Dropped == 0 {
		t.Fatal("20% drop over 1000 messages fired nothing")
	}
	if len(got)+int(c.Dropped) != len(msgs) {
		t.Fatalf("len(got)=%d + dropped=%d != %d", len(got), c.Dropped, len(msgs))
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
	if c.Duplicated == 0 {
		t.Fatal("10% duplication over 1000 messages fired nothing")
	}
	if len(got) != len(msgs)+int(c.Duplicated) {
		t.Fatalf("len(got)=%d, want %d originals + %d dups", len(got), len(msgs), c.Duplicated)
	}
	dups := 0
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			dups++
		}
	}
	if dups != int(c.Duplicated) {
		t.Fatalf("found %d adjacent exact duplicates, counter says %d", dups, c.Duplicated)
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
	if inj.Counts().Reordered == 0 {
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
	if c.Corrupted == 0 {
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
	if flipped != int(c.Corrupted) {
		t.Fatalf("%d messages corrupted, counter says %d", flipped, c.Corrupted)
	}
}

func TestTransientRecvErrorsAreTransient(t *testing.T) {
	inj := NewInjector(21, WithTransientRecvErrors(0.5))
	r := inj.Receiver(ipc.NewReplay(stream(4, 200)))
	buf := make([]ipc.Message, 8)
	total, errs := 0, 0
	for {
		n, ok, err := r.RecvBatch(buf)
		total += n
		if err != nil {
			if !ipc.IsTransient(err) {
				t.Fatalf("injected receive error is not transient: %v", err)
			}
			errs++
			continue
		}
		if !ok {
			break
		}
	}
	if errs == 0 {
		t.Fatal("50% receive-error rate fired nothing")
	}
	if total != 200 {
		t.Fatalf("transient errors lost messages: drained %d of 200", total)
	}
	if got := inj.Counts().RecvErrors; got != uint64(errs) {
		t.Fatalf("observed %d injected errors, counter says %d", errs, got)
	}
}

func TestTransientSendErrorsRetrySafely(t *testing.T) {
	inj := NewInjector(17, WithTransientSendErrors(0.3))
	ch := ipc.NewSharedRing(1 << 12)
	s := inj.Sender(ch.Sender)
	const n = 500
	for i := 0; i < n; i++ {
		if err := ipc.SendWithRetry(s, ipc.Message{Op: ipc.OpCounterInc, PID: 1}, 0); err != nil {
			t.Fatalf("send %d failed through retry: %v", i, err)
		}
	}
	if err := ch.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got := drainAll(t, ch.Receiver)
	if len(got) != n {
		t.Fatalf("drained %d messages, want %d", len(got), n)
	}
	// Failed sends consume no sequence number: the stream stays dense.
	for i, m := range got {
		if m.Seq != uint64(i+1) {
			t.Fatalf("send-error retry perturbed seq: got %d at position %d", m.Seq, i)
		}
	}
	if inj.Counts().SendErrors == 0 {
		t.Fatal("30% send-error rate fired nothing")
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
	if inj.Counts().Stalls == 0 {
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
			WithCorrupt(0.05), WithTransientSendErrors(0.05))
		// Two streams, wrapped in a fixed order, drained with different
		// batch sizes to prove batching cannot perturb the schedule.
		for i, bufSize := range []int{3, 17} {
			r := inj.Receiver(ipc.NewReplay(stream(int32(i+1), 700)))
			buf := make([]ipc.Message, bufSize)
			for {
				_, ok, err := r.RecvBatch(buf)
				if err != nil && !ipc.IsTransient(err) {
					t.Fatalf("terminal error: %v", err)
				}
				if !ok && err == nil {
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
