package verifier

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/policy"
)

// pumpStream builds a single-PID define/check/invalidate stream with
// consecutive sequence numbers.
func pumpStream(pid int32, n int) []ipc.Message {
	msgs := make([]ipc.Message, 0, n)
	var seq uint64
	for len(msgs) < n {
		i := len(msgs) / 3
		addr := uint64(0x1000 + 8*(i%1024))
		for _, op := range [...]ipc.Op{ipc.OpPointerDefine, ipc.OpPointerCheck, ipc.OpPointerInvalidate} {
			seq++
			msgs = append(msgs, ipc.Message{Op: op, PID: pid, Arg1: addr, Arg2: addr + 1, Seq: seq})
			if len(msgs) == n {
				break
			}
		}
	}
	return msgs
}

// TestPumpSetMultiSourceIntegrity drains several per-process replayed
// channels through one PumpSet with CheckSeq on: per-process ordering must
// survive the concurrent multiplexing (any reorder or loss would trip the
// sequence counter), and every message must be delivered before Close
// returns.
func TestPumpSetMultiSourceIntegrity(t *testing.T) {
	const procs, perProc = 6, 3000
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.CheckSeq = true

	ps := v.NewPumpSet()
	var dones []<-chan struct{}
	for p := 0; p < procs; p++ {
		pid := int32(1 + p)
		v.ProcessStarted(pid)
		done, err := ps.Attach(ipc.NewReplay(pumpStream(pid, perProc)))
		if err != nil {
			t.Fatalf("attach %d: %v", p, err)
		}
		dones = append(dones, done)
	}
	for _, d := range dones {
		<-d
	}
	ps.Close()

	if len(g.kills) != 0 {
		t.Fatalf("integrity kills on clean streams: %v", g.kills)
	}
	for p := 0; p < procs; p++ {
		pid := int32(1 + p)
		if got := v.Messages(pid); got != perProc {
			t.Errorf("pid %d: %d messages delivered, want %d", pid, got, perProc)
		}
		if viols := v.Violations(pid); len(viols) != 0 {
			t.Errorf("pid %d: unexpected violations %v", pid, viols)
		}
	}
	if ps.Sources() != 0 {
		t.Errorf("sources still attached after drain: %d", ps.Sources())
	}
}

// TestPumpSetDynamicAttachDetach registers sources while others are already
// draining live ring channels — the supervisor's launch/exit churn.
func TestPumpSetDynamicAttachDetach(t *testing.T) {
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.CheckSeq = true
	ps := v.NewPumpSet()

	const procs, perProc = 5, 2000
	var senders sync.WaitGroup
	dones := make([]<-chan struct{}, procs)
	for p := 0; p < procs; p++ {
		pid := int32(1 + p)
		v.ProcessStarted(pid)
		ch := ipc.NewSharedRing(1 << 8)
		done, err := ps.Attach(ch.Receiver)
		if err != nil {
			t.Fatalf("attach %d: %v", p, err)
		}
		dones[p] = done
		senders.Add(1)
		go func(ch *ipc.Channel, pid int32) {
			defer senders.Done()
			defer ch.Close()
			for _, m := range pumpStream(pid, perProc) {
				if err := ch.Sender.Send(m); err != nil {
					t.Errorf("pid %d send: %v", pid, err)
					return
				}
			}
		}(ch, pid)
	}
	senders.Wait()
	for _, d := range dones {
		<-d
	}
	ps.Close()

	if len(g.kills) != 0 {
		t.Fatalf("kills on clean live streams: %v", g.kills)
	}
	for p := 0; p < procs; p++ {
		pid := int32(1 + p)
		if got := v.Messages(pid); got != perProc {
			t.Errorf("pid %d: %d delivered, want %d", pid, got, perProc)
		}
	}
}

// TestPumpSetDoneMeansDelivered pins the Attach contract the supervisor's
// process teardown depends on: the done channel closes only after the
// source's messages have been *delivered*, not merely read. Per-PID state —
// the message count, a violation recorded by the very last message, and the
// kill it triggered — must all be observable immediately after <-done, with
// no Close first.
func TestPumpSetDoneMeansDelivered(t *testing.T) {
	for round := 0; round < 50; round++ {
		g := newFakeGate()
		v := New(cfiFactory, g)
		v.CheckSeq = true
		ps := v.NewPumpSet()

		const pid, clean = int32(7), 500
		v.ProcessStarted(pid)
		msgs := pumpStream(pid, clean)
		// Final message jumps the counter: a fatal integrity violation the
		// verifier must have acted on by the time done closes.
		msgs = append(msgs, ipc.Message{
			Op: ipc.OpPointerCheck, PID: pid,
			Arg1: 0x1000, Arg2: 0x1001, Seq: uint64(clean) + 2,
		})
		done, err := ps.Attach(ipc.NewReplay(msgs))
		if err != nil {
			t.Fatal(err)
		}
		<-done

		if got := v.Messages(pid); got != clean+1 {
			t.Fatalf("round %d: %d messages visible after done, want %d", round, got, clean+1)
		}
		if viols := v.Violations(pid); len(viols) != 1 {
			t.Fatalf("round %d: %d violations visible after done, want 1", round, len(viols))
		}
		if g.kills[pid] == "" {
			t.Fatalf("round %d: counter-gap kill not issued before done closed", round)
		}
		// Simulate the supervisor's next step: the kernel context exits and
		// the verifier context is destroyed. Nothing for this PID may still
		// be in flight to be dropped as "unregistered process".
		v.ProcessExited(pid)
		ps.Close()
	}
}

// TestPumpStartsOneGoroutinePerSource pins what runs: a pump set is no more
// than the drains attached to it — NewPumpSet starts nothing, Attach starts
// one goroutine, which is gone once the source closes — and Pump runs on its
// caller's goroutine alone. Counts are bounds that must settle, not exact
// figures: a goroutine left over from an earlier test (or the race
// detector's) may still be exiting while this one runs.
func TestPumpStartsOneGoroutinePerSource(t *testing.T) {
	v := New(cfiFactory, nil)
	v.ProcessStarted(1)
	base := runtime.NumGoroutine()
	settle := func(most int, when string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > most; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, want at most %d", when, runtime.NumGoroutine(), most)
			}
		}
	}

	ps := v.NewPumpSet()
	settle(base, "after NewPumpSet")
	const sources = 3
	var parked []*roundReceiver
	for i := 0; i < sources; i++ {
		r := &roundReceiver{idle: make(chan struct{}), next: make(chan struct{})}
		if _, err := ps.Attach(r); err != nil {
			t.Fatal(err)
		}
		<-r.idle // inside RecvBatch, on its drain
		parked = append(parked, r)
	}
	settle(base+sources, "with the sources parked in RecvBatch")
	for _, r := range parked {
		close(r.next)
	}
	ps.Close()
	settle(base, "after Close")

	calls, inPump := 0, 0
	v.Pump(recvFunc(func(out []ipc.Message) (int, bool, error) {
		if calls++; calls == 1 {
			return copy(out, pumpStream(1, 100)), true, nil
		}
		inPump = runtime.NumGoroutine() // back for more, the burst delivered
		return 0, false, nil
	}))
	if inPump > base || v.Messages(1) != 100 {
		t.Fatalf("inside Pump: %d goroutines (want at most %d), %d messages delivered (want 100)", inPump, base, v.Messages(1))
	}
}

// recvFunc adapts a function to ipc.Receiver.
type recvFunc func([]ipc.Message) (int, bool, error)

func (f recvFunc) RecvBatch(out []ipc.Message) (int, bool, error) { return f(out) }

// TestPumpSetAttachAfterClose verifies the closed pump refuses new sources.
func TestPumpSetAttachAfterClose(t *testing.T) {
	v := New(func() []policy.Policy { return nil }, nil)
	ps := v.NewPumpSet()
	ps.Close()
	if _, err := ps.Attach(ipc.NewReplay(nil)); !errors.Is(err, ErrPumpClosed) {
		t.Fatalf("attach after close: err = %v, want ErrPumpClosed", err)
	}
	ps.Close() // idempotent
}

// TestPumpSetAttributedErrorKillsOnlyThatSource: an integrity failure on one
// source kills the attributed process and stops that source's drain without
// disturbing the other attached sources.
func TestPumpSetAttributedErrorKillsOnlyThatSource(t *testing.T) {
	g := newFakeGate()
	v := New(cfiFactory, g)
	ps := v.NewPumpSet()

	v.ProcessStarted(1)
	v.ProcessStarted(2)

	bad := &errReceiver{err: &ipc.ProcessError{PID: 1, Err: ipc.ErrIntegrity}}
	doneBad, err := ps.Attach(bad)
	if err != nil {
		t.Fatal(err)
	}
	doneGood, err := ps.Attach(ipc.NewReplay(pumpStream(2, 300)))
	if err != nil {
		t.Fatal(err)
	}
	<-doneBad
	<-doneGood
	ps.Close()

	if g.kills[1] == "" {
		t.Error("attributed integrity error did not kill pid 1")
	}
	if g.kills[2] != "" {
		t.Errorf("pid 2 killed by pid 1's channel failure: %s", g.kills[2])
	}
	if got := v.Messages(2); got != 300 {
		t.Errorf("pid 2: %d delivered, want 300", got)
	}
}
