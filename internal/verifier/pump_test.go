package verifier

import (
	"runtime"
	"sync"
	"testing"

	"herqules/internal/ipc"
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

// drain runs v.Pump(r) on a goroutine of its own, as the supervisor's Admit
// does for each process, and returns a channel closed when Pump returns.
func drain(v *Verifier, r ipc.Receiver) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		v.Pump(r)
		close(done)
	}()
	return done
}

// TestPumpMultiSourceIntegrity drains several per-process replayed channels
// into one verifier, each on a drain goroutine of its own, with CheckSeq on:
// per-process ordering must survive the concurrent deliveries (any reorder
// or loss would trip the sequence counter), and every message must be
// delivered by the time its drain returns.
func TestPumpMultiSourceIntegrity(t *testing.T) {
	const procs, perProc = 6, 3000
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.CheckSeq = true

	var dones []<-chan struct{}
	for p := 0; p < procs; p++ {
		pid := int32(1 + p)
		v.ProcessStarted(pid)
		dones = append(dones, drain(v, ipc.NewReplay(pumpStream(pid, perProc))))
	}
	for _, d := range dones {
		<-d
	}

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
}

// TestPumpDynamicSources starts drains while others are already draining
// live ring channels — the supervisor's launch/exit churn.
func TestPumpDynamicSources(t *testing.T) {
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.CheckSeq = true

	const procs, perProc = 5, 2000
	var senders sync.WaitGroup
	dones := make([]<-chan struct{}, procs)
	for p := 0; p < procs; p++ {
		pid := int32(1 + p)
		v.ProcessStarted(pid)
		ch := ipc.NewSharedRing(1 << 8)
		dones[p] = drain(v, ch.Receiver)
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

// TestPumpReturnMeansDelivered pins the Pump contract the supervisor's
// process teardown depends on: Pump returns only after the source's messages
// have been *delivered*, not merely read. Per-PID state — the message count,
// a violation recorded by the very last message, and the kill it triggered —
// must all be observable as soon as the drain goroutine has returned.
func TestPumpReturnMeansDelivered(t *testing.T) {
	for round := 0; round < 50; round++ {
		g := newFakeGate()
		v := New(cfiFactory, g)
		v.CheckSeq = true

		const pid, clean = int32(7), 500
		v.ProcessStarted(pid)
		msgs := pumpStream(pid, clean)
		// Final message jumps the counter: a fatal integrity violation the
		// verifier must have acted on by the time Pump returns.
		msgs = append(msgs, ipc.Message{
			Op: ipc.OpPointerCheck, PID: pid,
			Arg1: 0x1000, Arg2: 0x1001, Seq: uint64(clean) + 2,
		})
		<-drain(v, ipc.NewReplay(msgs))

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
	}
}

// TestPumpStartsOneGoroutinePerSource pins what runs: a source's drain is
// the one goroutine that calls Pump, which starts no goroutine of its own.
// (That the supervisor's Admit starts exactly one per source is
// TestAdmitStartsOneDrainPerSource.) The count is a bound, not an exact
// figure: a goroutine left over from an earlier test (or the race
// detector's) may still be exiting while this one runs.
func TestPumpStartsOneGoroutinePerSource(t *testing.T) {
	v := New(cfiFactory, nil)
	v.ProcessStarted(1)
	base := runtime.NumGoroutine()

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

// TestPumpAttributedErrorKillsOnlyThatSource: an integrity failure on one
// source kills the attributed process and stops that source's drain without
// disturbing the other sources draining beside it.
func TestPumpAttributedErrorKillsOnlyThatSource(t *testing.T) {
	g := newFakeGate()
	v := New(cfiFactory, g)

	v.ProcessStarted(1)
	v.ProcessStarted(2)

	bad := &errReceiver{err: &ipc.ProcessError{PID: 1, Err: ipc.ErrIntegrity}}
	doneBad := drain(v, bad)
	doneGood := drain(v, ipc.NewReplay(pumpStream(2, 300)))
	<-doneBad
	<-doneGood

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
