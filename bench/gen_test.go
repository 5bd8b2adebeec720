package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/kernel"
	"herqules/internal/policy"
	"herqules/internal/verifier"
)

// The generator tests never start a timed workload: they build streams and
// push them through a plain verifier with DeliverBatch.

// streamHash folds messages into a 64-bit FNV-1a digest chained
// from h.
func streamHash(h uint64, ms []ipc.Message) uint64 {
	f := fnv.New64a()
	var b [ipc.MessageSize + 8]byte
	binary.LittleEndian.PutUint64(b[ipc.MessageSize:], h)
	for _, m := range ms {
		m.Encode(b[:])
		f.Write(b[:])
	}
	return f.Sum64()
}

// scheduleHash digests a schedule.
func scheduleHash(s []time.Duration) uint64 {
	h := uint64(len(s))
	for _, d := range s {
		h = mix64(h ^ math.Float64bits(float64(d)))
	}
	return h
}

// killLog is a verifier.Gate that records kills instead of enforcing them.
type killLog struct{ reasons map[int32]string }

func (k *killLog) NotifySyncReady(int32) {}
func (k *killLog) Kill(pid int32, reason string) {
	if k.reasons == nil {
		k.reasons = map[int32]string{}
	}
	k.reasons[pid] = reason
}

// deliver runs ms for pid through a fresh verifier over the named chain,
// sealing them under the process's key when the chain holds hmac and sealed
// is set, and returns the policies the recorded violations name.
func deliver(t *testing.T, chain []string, pid int32, sealed bool, blocks ...[]ipc.Message) (violated []string, entries int, gate *killLog) {
	t.Helper()
	factory, err := policy.SetFactory(chain...)
	if err != nil {
		t.Fatal(err)
	}
	gate = &killLog{}
	v := verifier.NewSharded(factory, gate, 1)
	v.CheckSeq = true
	kr := policy.NewKeyringSeeded(7)
	kr.Program(pid)
	v.SetKeyring(kr)
	v.ProcessStarted(pid)
	key, _ := kr.Key(pid)
	seq := uint64(1)
	for _, blk := range blocks {
		ms := append([]ipc.Message(nil), blk...)
		sealInPlace(ms, seq, key, sealed)
		seq += uint64(len(ms))
		v.DeliverBatch(ms)
	}
	for _, viol := range v.Violations(pid) {
		violated = append(violated, viol.Policy)
	}
	entries, _ = v.Entries(pid)
	return violated, entries, gate
}

func TestHotMixDeterministicAndClean(t *testing.T) {
	const pid = 11
	a := newHotMix(42, pid, hotSlots, hotPeriod, blockMsgs)
	b := newHotMix(42, pid, hotSlots, hotPeriod, blockMsgs)
	c := newHotMix(43, pid, hotSlots, hotPeriod, blockMsgs)
	if len(a.period) != hotPeriod {
		t.Fatalf("period holds %d messages, want %d", len(a.period), hotPeriod)
	}
	if ha, hb := streamHash(0, a.period), streamHash(0, b.period); ha != hb {
		t.Fatalf("same seed, different streams: %#x vs %#x", ha, hb)
	}
	if streamHash(0, a.period) == streamHash(0, c.period) {
		t.Fatal("different seeds produced the same stream")
	}
	// Two and a half periods, block by block: clean across the wrap-around,
	// and the table is empty again whenever a period ends.
	var blocks [][]ipc.Message
	for i := 0; i < 2*hotPeriod/blockMsgs; i++ {
		blocks = append(blocks, a.next())
	}
	violated, entries, _ := deliver(t, []string{"cfi", "counter"}, pid, false, blocks...)
	if len(violated) != 0 {
		t.Fatalf("clean hot mix violated %v", violated)
	}
	if entries != 0 {
		t.Fatalf("%d entries live at a period boundary, want 0", entries)
	}
	blocks = blocks[:0]
	for i := 0; i < hotPeriod/blockMsgs/2; i++ {
		blocks = append(blocks, a.next())
	}
	if violated, _, _ := deliver(t, hqdPolicies(), pid, true, blocks...); len(violated) != 0 {
		t.Fatalf("sealed hot mix under hqd's chain violated %v", violated)
	}
}

func TestHotMixRequestBlocks(t *testing.T) {
	h := newHotMix(5, 3, hotSlots, hotPeriod, requestMsgs)
	var blocks [][]ipc.Message
	for i := 0; i < hotPeriod/requestMsgs; i++ {
		blk := h.next()
		if len(blk) != requestMsgs {
			t.Fatalf("request block holds %d messages, want %d", len(blk), requestMsgs)
		}
		blocks = append(blocks, blk)
	}
	if violated, entries, _ := deliver(t, []string{"cfi"}, 3, false, blocks...); len(violated) != 0 || entries != 0 {
		t.Fatalf("request-sized hot mix: violations %v, %d entries left", violated, entries)
	}
}

func TestPolicyMixDeterministicCleanAndCounted(t *testing.T) {
	const pid = 21
	chain := specByName("ring_policy").policies
	gen := func(seed uint64) (*policyMix, [][]ipc.Message, uint64) {
		pm := newPolicyMix(seed, pid, quickPolicySizes)
		var blocks [][]ipc.Message
		h := uint64(0)
		keep := func(blk []ipc.Message) {
			cp := append([]ipc.Message(nil), blk...) // next reuses its buffer
			blocks = append(blocks, cp)
			h = streamHash(h, cp)
		}
		sent := 0
		for blk := pm.prefillNext(); blk != nil; blk = pm.prefillNext() {
			sent += len(blk)
			keep(blk)
		}
		if sent != pm.prefillLen() {
			t.Fatalf("prefill sent %d messages, prefillLen says %d", sent, pm.prefillLen())
		}
		for i := 0; i < 12; i++ {
			blk := pm.next()
			if len(blk) != blockMsgs {
				t.Fatalf("steady block holds %d messages, want %d", len(blk), blockMsgs)
			}
			keep(blk)
		}
		return pm, blocks, h
	}
	pm, blocks, h1 := gen(9)
	_, _, h2 := gen(9)
	_, _, h3 := gen(10)
	if h1 != h2 {
		t.Fatalf("same seed, different streams: %#x vs %#x", h1, h2)
	}
	if h1 == h3 {
		t.Fatal("different seeds produced the same stream")
	}
	violated, entries, gate := deliver(t, chain, pid, true, blocks...)
	if len(violated) != 0 {
		t.Fatalf("clean policy mix violated %v (%v)", violated, gate.reasons)
	}
	if entries != pm.liveEntries() {
		t.Fatalf("verifier holds %d entries, generator expects %d", entries, pm.liveEntries())
	}
	ops := map[ipc.Op]int{}
	for _, blk := range blocks {
		for _, m := range blk {
			ops[m.Op]++
		}
	}
	for _, op := range []ipc.Op{ipc.OpPointerCheck, ipc.OpPointerInvalidate, ipc.OpPointerCheckInvalidate, ipc.OpAllocCreate,
		ipc.OpAllocCheck, ipc.OpAllocCheckBase, ipc.OpAllocDestroy, ipc.OpDFISet, ipc.OpDFICheck, ipc.OpCounterInc} {
		if ops[op] == 0 {
			t.Errorf("policy mix never sent %v", op)
		}
	}
	if full := newPolicyMix(1, pid, fullPolicySizes); ringSessions*full.liveEntries() < 1<<20 {
		t.Errorf("full working set is %d entries over %d processes, want at least 1 M", ringSessions*full.liveEntries(), ringSessions)
	}
}

func TestCanariesTripExactlyTheirPolicy(t *testing.T) {
	const pid = 31
	chain := specByName("ring_policy").policies
	for _, c := range []struct {
		name   string
		msgs   []ipc.Message
		sealed bool
		want   string
	}{
		{"cfi", canaryCFI(pid), true, "cfi"},
		{"unsealed", canaryUnsealed(pid), false, "hmac"},
	} {
		violated, _, gate := deliver(t, chain, pid, c.sealed, c.msgs)
		if len(violated) != 1 || violated[0] != c.want {
			t.Errorf("%s canary: violations %v, want exactly [%s]", c.name, violated, c.want)
		}
		if gate.reasons[pid] == "" {
			t.Errorf("%s canary was not killed", c.name)
		}
	}
	// The same pointer check with the right value is clean: the canary dies
	// for what it did, not for being short.
	ok := canaryCFI(pid)
	ok[1].Arg2 = ok[0].Arg2
	if violated, _, _ := deliver(t, chain, pid, true, ok); len(violated) != 0 {
		t.Errorf("corrected canary still violated %v", violated)
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(3, 2000, 4000)
	b := poissonSchedule(3, 2000, 4000)
	c := poissonSchedule(4, 2000, 4000)
	if scheduleHash(a) != scheduleHash(b) {
		t.Fatal("same seed, different schedules")
	}
	if scheduleHash(a) == scheduleHash(c) {
		t.Fatal("different seeds produced the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
	}
	// 4000 arrivals at 2000/s take two seconds, give or take the spread of
	// a sum of 4000 exponentials (sd ≈ 1.6 %).
	if total := a[len(a)-1].Seconds(); total < 1.8 || total > 2.2 {
		t.Fatalf("4000 arrivals at 2000/s span %.3fs, want about 2s", total)
	}
}

// TestKernelRefusesCanaryAtNextGate drives the canary through a real kernel
// and verifier the way the ring workloads do, without any timed rep.
func TestKernelRefusesCanaryAtNextGate(t *testing.T) {
	factory, err := policy.SetFactory("cfi", "counter")
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(nil)
	v := verifier.NewSharded(factory, k, 1)
	k.SetListener(v)
	pid := k.Register()
	ms := append(canaryCFI(pid), ipc.Message{Op: ipc.OpSyscall, PID: pid})
	sealInPlace(ms, 1, ipc.MacKey{}, false)
	v.DeliverBatch(ms)
	if err := k.SyscallEnter(pid, 0); err == nil {
		t.Fatal("gate let the canary through")
	}
}
