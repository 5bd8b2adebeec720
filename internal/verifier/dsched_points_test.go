package verifier

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"herqules/internal/dsched"
	"herqules/internal/ipc"
	"herqules/internal/policy"
)

// goroutineID names the calling goroutine, as the header of its stack trace
// does ("goroutine 18 [running]:").
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// pointSpotter is a passive dsched.Hooks: it counts every point hit, notes
// which goroutines yield PointDeliver, parks nothing and answers the real
// clock.
type pointSpotter struct {
	mu     sync.Mutex
	counts map[dsched.Point]int
	ids    map[string]bool
}

func (s *pointSpotter) Yield(p dsched.Point, pid int32) {
	if p == dsched.PointDeliver {
		s.mu.Lock()
		s.ids[goroutineID()] = true
		s.mu.Unlock()
	}
	s.Note(p, pid)
}

func (s *pointSpotter) Note(p dsched.Point, _ int32) {
	s.mu.Lock()
	s.counts[p]++
	s.mu.Unlock()
}

func (s *pointSpotter) Now() time.Time { return time.Now() }

func (s *pointSpotter) AfterFunc(d time.Duration, f func()) dsched.Timer {
	return realTimer{time.AfterFunc(d, f)}
}

type realTimer struct{ *time.Timer }

func (t realTimer) Reset(d time.Duration) { t.Timer.Reset(d) }

// TestPipelinePointsRecorded asserts the interleaving points the model
// checker schedules actually exist on the pump path: a pumped stream hits
// deliver (a run read, not yet delivered) and poison-check (delivery round)
// at least once each, and deliver only ever on the goroutine
// that called Pump — there is no other for a delivery to happen on. This is
// the cheap half of the schedule-hook contract — internal/verify relies on
// these points being there.
func TestPipelinePointsRecorded(t *testing.T) {
	r := &pointSpotter{counts: make(map[dsched.Point]int), ids: make(map[string]bool)}
	dsched.Install(r)
	defer dsched.Uninstall()

	v := New(func() []policy.Policy { return nil }, nil)
	const pid = int32(7)
	v.ProcessStarted(pid)

	ch := ipc.NewSharedRing(1 << 8)
	for i := 0; i < 100; i++ {
		if err := ch.Sender.Send(ipc.Message{Op: ipc.OpCounterInc, PID: pid, Seq: uint64(i + 1)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	ch.Close()
	v.Pump(ch.Receiver)

	if got := v.Messages(pid); got != 100 {
		t.Fatalf("delivered %d messages, want 100", got)
	}
	for _, p := range []dsched.Point{dsched.PointDeliver, dsched.PointPoisonCheck} {
		if r.counts[p] == 0 {
			t.Errorf("point %s never recorded on the pump path", p)
		}
	}
	if me := goroutineID(); len(r.ids) != 1 || !r.ids[me] {
		t.Errorf("deliver yielded on goroutines %v, want only Pump's caller (%s)", r.ids, me)
	}
}

// TestPoisonProcessDropsOnlyItsMessages pins the unit of poisoning: a
// poisoned process's messages are dropped with its dead context, and a
// neighbour's, whatever its PID, are validated.
func TestPoisonProcessDropsOnlyItsMessages(t *testing.T) {
	g := newFakeGate()
	v := New(func() []policy.Policy { return nil }, g)
	a, b := int32(101), int32(102)
	v.ProcessStarted(a)
	v.ProcessStarted(b)
	v.PoisonProcess(a, "test poison")
	v.PoisonProcess(a, "second poison") // first caller wins
	v.DeliverBatch([]ipc.Message{
		{Op: ipc.OpCounterInc, PID: a, Seq: 1},
		{Op: ipc.OpCounterInc, PID: b, Seq: 1},
	})
	if st, _ := v.ProcStats(a); st.Messages != 0 || st.Dropped != 1 || !st.Dead {
		t.Fatalf("poisoned pid %d: %+v, want its message dropped with the dead context", a, st)
	}
	if got := v.Messages(b); got != 1 {
		t.Fatalf("pid %d: %d messages validated, want 1", b, got)
	}
	if g.kills[a] != "test poison" || g.kills[b] != "" || v.Poisoned() != 1 {
		t.Fatalf("kills %v, Poisoned %d: want pid %d alone killed, once", g.kills, v.Poisoned(), a)
	}
}

// exitingReceiver serves one burst for pid, then exits pid's context and
// serves a second: the drain still holds a pointer to the exited context.
type exitingReceiver struct {
	v     *Verifier
	pid   int32
	calls int
}

func (r *exitingReceiver) RecvBatch(out []ipc.Message) (int, bool, error) {
	r.calls++
	out[0] = ipc.Message{Op: ipc.OpCounterInc, PID: r.pid, Seq: uint64(r.calls)}
	if r.calls == 2 {
		r.v.ProcessExited(r.pid)
		return 1, false, nil
	}
	return 1, true, nil
}

// TestPumpDropsRunOfExitedContext: Pump caches the context it delivered to
// last; once that process exits, its next run is dropped as an unregistered
// PID's would be, not delivered to the torn-down context.
func TestPumpDropsRunOfExitedContext(t *testing.T) {
	v := New(func() []policy.Policy { return nil }, nil)
	v.ProcessStarted(5)
	v.Pump(&exitingReceiver{v: v, pid: 5})
	if got := v.TotalMessages(); got != 1 {
		t.Fatalf("TotalMessages = %d, want 1: the run after the exit must be dropped", got)
	}
	if _, ok := v.ProcStats(5); ok {
		t.Fatal("exited context still registered")
	}
}
