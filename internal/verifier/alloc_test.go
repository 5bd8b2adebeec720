package verifier

import (
	"testing"
	"unsafe"

	"herqules/internal/ipc"
	"herqules/internal/policy"
)

func counterOnlyFactory() []policy.Policy {
	return []policy.Policy{policy.NewCounter()}
}

// roundReceiver serves msgs once per round on a drain that outlives the
// rounds. A drain asks for more only once it has delivered what it was given,
// so the RecvBatch call that finds a round exhausted reports it (idle) and
// parks until the next is released (next); closing next closes the source.
type roundReceiver struct {
	msgs       []ipc.Message
	pos        int
	idle, next chan struct{}
}

func (r *roundReceiver) RecvBatch(out []ipc.Message) (int, bool, error) {
	if r.pos == len(r.msgs) {
		r.idle <- struct{}{}
		if _, more := <-r.next; !more {
			return 0, false, nil
		}
		r.pos = 0
	}
	n := copy(out, r.msgs[r.pos:])
	r.pos += n
	return n, true, nil
}

// TestDrainSteadyStateZeroAlloc proves the zero-copy claim in its strongest
// form: on a drain that has read its first burst (proc context created, burst
// buffer made), pushing messages through the full receive → run cut →
// delivery → policy path allocates nothing, and what a source costs to set up
// does not depend on how much it sends. CheckSeq stays off and telemetry
// unattached — both are orthogonal features the alloc budget of the hot path
// proper must not depend on. The flight recorder IS armed: its per-message
// stamp rides the hot path, and the zero-alloc budget must hold with the black
// box recording.
func TestDrainSteadyStateZeroAlloc(t *testing.T) {
	const nmsgs = 64 * DefaultBatchSize
	msgs := make([]ipc.Message, nmsgs)
	for i := range msgs {
		msgs[i] = ipc.Message{Op: ipc.OpCounterInc, PID: 1, Arg1: 1}
	}

	v := NewSharded(counterOnlyFactory, nil, 1)
	v.EnableFlightRecorder(64)
	v.ProcessStarted(1)

	r := &roundReceiver{msgs: msgs, pos: nmsgs, idle: make(chan struct{}), next: make(chan struct{})}
	ps := v.NewPumpSet()
	done, err := ps.Attach(r)
	if err != nil {
		t.Fatal(err)
	}
	<-r.idle
	round := func() {
		r.next <- struct{}{}
		<-r.idle // the drain is back for more: the round is delivered
	}
	for i := 0; i < 3; i++ {
		round() // warm the proc context and runtime internals
	}
	before := v.Messages(1)
	allocs := testing.AllocsPerRun(20, round)
	if allocs > 0.5 {
		t.Fatalf("steady-state drain allocated %.2f times per %d messages (%.6f allocs/msg), want 0",
			allocs, nmsgs, allocs/nmsgs)
	}
	if got := v.Messages(1) - before; got != 21*nmsgs { // AllocsPerRun warms up with one run of its own
		t.Fatalf("%d messages delivered over 21 rounds of %d", got, nmsgs)
	}
	close(r.next)
	<-done
	ps.Close()

	// What a source costs is its burst buffer, whether it sends one burst or 64.
	perSource := func(n int) float64 {
		replay := ipc.NewReplay(msgs[:n])
		return testing.AllocsPerRun(20, func() {
			replay.Rewind()
			v.Pump(replay)
		})
	}
	if short, long := perSource(DefaultBatchSize), perSource(nmsgs); short != 1 || long != 1 {
		t.Fatalf("Pump allocated %.2f times over one burst and %.2f over %d, want the one buffer both times",
			short, long, nmsgs/DefaultBatchSize)
	}
}

// TestDeliverAllocatesNothing pins the inline path: Deliver's batch of one is
// the shard's scratch slot, not a local that the window's interface calls
// (Prefetch, UnsealRun) force onto the heap once per message.
func TestDeliverAllocatesNothing(t *testing.T) {
	for _, names := range [][]string{
		{"cfi", "memsafety", "counter", "dfi"},
		{"cfi", "memsafety", "counter", "dfi", "hmac"},
	} {
		factory, err := policy.SetFactory(names...)
		if err != nil {
			t.Fatal(err)
		}
		kr := policy.NewKeyringSeeded(1)
		kr.Program(1)
		key, _ := kr.Key(1)
		v := NewSharded(factory, nil, 1)
		v.CheckSeq = true
		v.SetKeyring(kr)
		v.ProcessStarted(1)
		sealed := names[len(names)-1] == "hmac"
		seq := uint64(0)
		send := func() {
			seq++
			m := ipc.Message{Op: ipc.OpPointerDefine, PID: 1, Arg1: 0x1000, Arg2: 0x4000, Seq: seq}
			if sealed {
				m.Mac = ipc.MacSeal(key, m, seq)
			}
			v.Deliver(m)
		}
		send() // the pointer table's first insert
		if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
			t.Errorf("chain %v: Deliver allocated %.2f times per message, want 0", names, allocs)
		}
		if got := v.Violations(1); len(got) != 0 || v.Messages(1) != seq {
			t.Fatalf("chain %v: %d of %d messages evaluated, violations %v", names, v.Messages(1), seq, got)
		}
	}
}

// TestShardStatePadding keeps the false-sharing fix honest: the per-shard
// structs the drains hammer concurrently must stay cache-line multiples, or
// adjacent shards in the slice start bouncing each other's lines again.
func TestShardStatePadding(t *testing.T) {
	if s := unsafe.Sizeof(shard{}); s%cacheLinePad != 0 {
		t.Errorf("sizeof(shard) = %d, not a multiple of %d", s, cacheLinePad)
	}
	if s := unsafe.Sizeof(shardHealth{}); s%cacheLinePad != 0 {
		t.Errorf("sizeof(shardHealth) = %d, not a multiple of %d", s, cacheLinePad)
	}
}
