package verifier

import (
	"sync"
	"testing"
	"unsafe"

	"herqules/internal/ipc"
	"herqules/internal/policy"
)

func counterOnlyFactory() []policy.Policy {
	return []policy.Policy{policy.NewCounter()}
}

// TestDrainSteadyStateZeroAlloc proves the zero-copy claim in its strongest
// form: once warmed up (proc contexts created, arena blocks leased once),
// pushing messages through the full drain → route → shard-worker → policy
// path allocates nothing. CheckSeq stays off and telemetry unattached — both
// are orthogonal features the alloc budget of the hot path proper must not
// depend on. The flight recorder IS armed: its per-message stamp rides the
// hot path, and the zero-alloc budget must hold with the black box recording.
func TestDrainSteadyStateZeroAlloc(t *testing.T) {
	const nmsgs = 4 * blockSlots // several block turnovers per run
	msgs := make([]ipc.Message, nmsgs)
	for i := range msgs {
		msgs[i] = ipc.Message{Op: ipc.OpCounterInc, PID: 1, Arg1: 1}
	}
	r := ipc.NewReplay(msgs)

	v := NewSharded(counterOnlyFactory, nil, 1)
	v.EnableFlightRecorder(64)
	v.ProcessStarted(1)
	p := v.newPipeline()
	defer p.stop()

	var flush sync.WaitGroup
	run := func() {
		r.Rewind()
		drainLoop(p, r, &flush)
		flush.Wait() // every block reference back in the free list
	}
	// Warm up. The arena's circulating set is primed first, deterministically:
	// the runs queued to the shard (QueueDepth), the one its worker is
	// delivering and the one the drain is enqueueing span that many blocks
	// plus one when unaligned, and the drain's writer lease may sit on one
	// more — lease and release that many, so the free list holds every block
	// the pipeline can have in flight however far the scheduler lets the
	// worker lag the drain. The runs then warm the proc context and runtime
	// internals.
	const runsPerBlock = blockSlots / DefaultBatchSize
	const maxBlocks = (DefaultQueueDepth+2+runsPerBlock-1)/runsPerBlock + 2
	var primed [maxBlocks]*arenaBlock
	for i := range primed {
		primed[i] = p.arena.lease()
	}
	for _, b := range primed {
		p.arena.release(b)
	}
	for i := 0; i < 3; i++ {
		run()
	}
	blockAllocs := p.arena.allocs.Load()

	allocs := testing.AllocsPerRun(20, run)
	if allocs > 0.5 {
		t.Fatalf("steady-state drain allocated %.2f times per %d messages (%.6f allocs/msg), want 0",
			allocs, nmsgs, allocs/nmsgs)
	}
	if got := p.arena.allocs.Load(); got != blockAllocs {
		t.Fatalf("arena allocated %d fresh blocks after warm-up, want 0", got-blockAllocs)
	}
	if blockAllocs != maxBlocks {
		t.Fatalf("arena holds %d blocks, want exactly the %d primed: the pipeline's in-flight bound is wrong", blockAllocs, maxBlocks)
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

// TestArenaBlocksReturnAfterFlush is the leak check for the refcounted block
// hand-off: when every routed run has been delivered, every lease and run
// reference must have been released, leaving no block outstanding.
func TestArenaBlocksReturnAfterFlush(t *testing.T) {
	msgs := make([]ipc.Message, 3*blockSlots+17) // deliberately not block-aligned
	for i := range msgs {
		msgs[i] = ipc.Message{Op: ipc.OpCounterInc, PID: int32(i % 5), Arg1: 1}
	}

	v := NewSharded(counterOnlyFactory, nil, 4)
	ps := v.NewPumpSet()
	done, err := ps.Attach(ipc.NewReplay(msgs))
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	<-done
	ps.Close()
	if n := ps.p.arena.outstanding(); n != 0 {
		t.Fatalf("%d arena blocks still outstanding after flush", n)
	}
}

// TestArenaBlocksReturnOnPoisonedShard pins the same invariant down the
// fail-closed path: a shard poisoned mid-stream keeps consuming its queue
// (dropping deliveries), and every one of those dropped batches must still
// release its block reference — a dead shard must not leak arena blocks any
// more than it may wedge producers. Policy panics no longer poison (they
// kill only the offending process), so the poison is injected directly, as
// a delivery-machinery failure would.
func TestArenaBlocksReturnOnPoisonedShard(t *testing.T) {
	msgs := make([]ipc.Message, 2*blockSlots)
	for i := range msgs {
		msgs[i] = ipc.Message{Op: ipc.OpCounterInc, PID: 1, Arg1: 1}
	}

	v := NewSharded(counterOnlyFactory, newFakeGate(), 1)
	v.ProcessStarted(1)
	v.PoisonShard(0, "verifier shard 0 poisoned: injected delivery-path failure")
	if v.PoisonedShards() == 0 {
		t.Fatal("shard was not poisoned; test exercised the wrong path")
	}
	ps := v.NewPumpSet()
	done, err := ps.Attach(ipc.NewReplay(msgs))
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	<-done
	ps.Close()
	if n := ps.p.arena.outstanding(); n != 0 {
		t.Fatalf("%d arena blocks still outstanding after poisoned drain", n)
	}
}

// TestShardStatePadding keeps the false-sharing fix honest: the per-shard
// structs the workers hammer concurrently must stay cache-line multiples, or
// adjacent shards in the slice start bouncing each other's lines again.
func TestShardStatePadding(t *testing.T) {
	if s := unsafe.Sizeof(shard{}); s%cacheLinePad != 0 {
		t.Errorf("sizeof(shard) = %d, not a multiple of %d", s, cacheLinePad)
	}
	if s := unsafe.Sizeof(shardHealth{}); s%cacheLinePad != 0 {
		t.Errorf("sizeof(shardHealth) = %d, not a multiple of %d", s, cacheLinePad)
	}
}
