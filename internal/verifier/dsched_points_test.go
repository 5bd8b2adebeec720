package verifier

import (
	"runtime"
	"strings"
	"sync"
	"testing"

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

// deliverSpotter is a Recorder that also notes which goroutines yield
// PointShardDeliver.
type deliverSpotter struct {
	*dsched.Recorder
	mu  sync.Mutex
	ids map[string]bool
}

func (s *deliverSpotter) Yield(p dsched.Point, pid int32) {
	if p == dsched.PointShardDeliver {
		s.mu.Lock()
		s.ids[goroutineID()] = true
		s.mu.Unlock()
	}
	s.Recorder.Yield(p, pid)
}

// TestPipelinePointsRecorded asserts the interleaving points the model
// checker schedules actually exist on the pump path: a pumped stream hits
// shard-deliver (a run read, not yet delivered) and poison-check (delivery
// round) at least once each, and shard-deliver only ever on the goroutine
// that called Pump — there is no other for a delivery to happen on. This is
// the cheap half of the schedule-hook contract — internal/verify relies on
// these points being there.
func TestPipelinePointsRecorded(t *testing.T) {
	r := &deliverSpotter{Recorder: dsched.NewRecorder(), ids: make(map[string]bool)}
	dsched.Install(r)
	defer dsched.Uninstall()

	v := NewSharded(func() []policy.Policy { return nil }, nil, 2)
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
	for _, p := range []dsched.Point{dsched.PointShardDeliver, dsched.PointPoisonCheck} {
		if r.Count(p) == 0 {
			t.Errorf("point %s never recorded on the pump path", p)
		}
	}
	if me := goroutineID(); len(r.ids) != 1 || !r.ids[me] {
		t.Errorf("shard-deliver yielded on goroutines %v, want only Pump's caller (%s)", r.ids, me)
	}
}

// TestShardOfMatchesDelivery pins the exported routing: a message for pid is
// validated on the shard ShardOf names.
func TestShardOfMatchesDelivery(t *testing.T) {
	v := NewSharded(func() []policy.Policy { return nil }, nil, 2)
	a, b := int32(101), int32(102)
	v.ProcessStarted(a)
	v.ProcessStarted(b)
	v.PoisonShard(v.ShardOf(a), "test poison")
	v.Deliver(ipc.Message{Op: ipc.OpCounterInc, PID: a, Seq: 1})
	if got := v.Messages(a); got != 0 {
		t.Fatalf("poisoned shard validated %d messages for pid %d, want fail-closed drop", got, a)
	}
	if v.ShardOf(a) == v.ShardOf(b) {
		t.Skip("pids 101/102 hash to one shard here; routing assertion vacuous")
	}
	v.Deliver(ipc.Message{Op: ipc.OpCounterInc, PID: b, Seq: 1})
	if got := v.Messages(b); got != 1 {
		t.Fatalf("healthy shard delivered %d for pid %d, want 1", got, b)
	}
}
