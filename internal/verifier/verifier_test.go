package verifier

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/kernel"
	"herqules/internal/policy"
)

func cfiFactory() []policy.Policy {
	return []policy.Policy{policy.NewCFI(), policy.NewCounter()}
}

// fakeGate records kernel interactions.
type fakeGate struct {
	mu    sync.Mutex
	syncs []int32
	kills map[int32]string
}

func newFakeGate() *fakeGate { return &fakeGate{kills: make(map[int32]string)} }

func (g *fakeGate) NotifySyncReady(pid int32) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.syncs = append(g.syncs, pid)
}

func (g *fakeGate) Kill(pid int32, reason string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.kills[pid]; !dup {
		g.kills[pid] = reason
	}
}

func TestDeliverDispatchesToPolicies(t *testing.T) {
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.ProcessStarted(1)
	v.Deliver(ipc.Message{Op: ipc.OpPointerDefine, PID: 1, Arg1: 0x10, Arg2: 0x20})
	v.Deliver(ipc.Message{Op: ipc.OpPointerCheck, PID: 1, Arg1: 0x10, Arg2: 0x20})
	if len(g.kills) != 0 {
		t.Fatalf("valid check killed: %v", g.kills)
	}
	if v.Messages(1) != 2 {
		t.Errorf("Messages = %d, want 2", v.Messages(1))
	}
	cur, max := v.Entries(1)
	if cur != 1 || max != 1 {
		t.Errorf("Entries = %d/%d, want 1/1", cur, max)
	}
}

// opSpy records the ops it is handed; its Ops list is whatever the test says.
type opSpy struct {
	policy.Hooks
	name string
	ops  []ipc.Op
	seen []ipc.Op
}

func (p *opSpy) Name() string         { return p.name }
func (p *opSpy) Ops() []ipc.Op        { return p.ops }
func (p *opSpy) Entries() int         { return 0 }
func (p *opSpy) Clone() policy.Policy { return &opSpy{name: p.name, ops: p.ops} }
func (p *opSpy) Handle(m ipc.Message) *policy.Violation {
	p.seen = append(p.seen, m.Op)
	return nil
}
func (p *opSpy) HandleRun(ms []ipc.Message) (int, *policy.Violation) {
	for i := range ms {
		p.Handle(ms[i])
	}
	return len(ms), nil
}

// TestMessagesAreRoutedByDeclaredOps pins the routing table built from
// Policy.Ops: a policy listing ops is handed those and nothing else (once,
// however often it lists one), a policy listing nothing in particular is
// handed everything, an op beyond the table — a hostile frame can carry any
// 32 bits — reaches only the take-everything policies and indexes nothing,
// even when a policy lists it.
func TestMessagesAreRoutedByDeclaredOps(t *testing.T) {
	all := &opSpy{name: "all"}
	some := &opSpy{name: "some", ops: []ipc.Op{ipc.OpCounterInc, ipc.OpDFISet, ipc.OpCounterInc}}
	none := &opSpy{name: "none", ops: []ipc.Op{}}
	far := &opSpy{name: "far", ops: []ipc.Op{ipc.OpCounterInc, ipc.NumOps + 3}}
	counter := policy.NewCounter()
	g := newFakeGate()
	v := New(func() []policy.Policy { return []policy.Policy{all, some, none, far, counter} }, g)
	v.ProcessStarted(1)
	sent := []ipc.Op{ipc.OpCounterInc, ipc.OpDFISet, ipc.OpSyscall, ipc.OpPointerCheck, ipc.NumOps, ipc.NumOps + 3, 0xffffffff}
	batch := make([]ipc.Message, len(sent))
	for i, op := range sent {
		batch[i] = ipc.Message{Op: op, PID: 1, Arg1: 1}
	}
	v.DeliverBatch(batch)
	for _, op := range sent {
		v.Deliver(ipc.Message{Op: op, PID: 1, Arg1: 1})
	}
	twice := func(ops ...ipc.Op) []ipc.Op { return append(append([]ipc.Op{}, ops...), ops...) }
	for _, c := range []struct {
		p    *opSpy
		want []ipc.Op
	}{
		{all, twice(sent...)},
		{some, twice(ipc.OpCounterInc, ipc.OpDFISet)},
		{none, nil},
		{far, twice(ipc.OpCounterInc)},
	} {
		if !reflect.DeepEqual(c.p.seen, c.want) {
			t.Errorf("policy %q was handed %v, want %v", c.p.name, c.p.seen, c.want)
		}
	}
	if got := counter.Count(1); got != 2 {
		t.Errorf("counter saw %d increments, want 2", got)
	}
	if len(g.kills) != 0 || v.Messages(1) != uint64(2*len(sent)) {
		t.Errorf("kills %v, %d messages evaluated; want none and %d", g.kills, v.Messages(1), 2*len(sent))
	}
}

// runSpy records the length of every run it is handed.
type runSpy struct {
	opSpy
	runs []int
}

func (p *runSpy) HandleRun(ms []ipc.Message) (int, *policy.Violation) {
	p.runs = append(p.runs, len(ms))
	return p.opSpy.HandleRun(ms)
}

// TestRunsEndWhereTheEngineMustLook pins where a run ends: at the window's
// edge, at a process change, after a System-Call message (whose gate is
// released even though the policy consumes what follows it), at a sequence
// discontinuity, and wherever the next op has another consumer; an op two
// policies consume is a run of one for each of them.
func TestRunsEndWhereTheEngineMustLook(t *testing.T) {
	msg := func(pid int32, op ipc.Op, seq uint64) ipc.Message {
		return ipc.Message{Op: op, PID: pid, Arg1: 1, Seq: seq}
	}
	stream := func(pid int32, ops ...ipc.Op) []ipc.Message {
		var ms []ipc.Message
		for i, op := range ops {
			ms = append(ms, msg(pid, op, uint64(i+1)))
		}
		return ms
	}
	repeat := func(n int, op ipc.Op) []ipc.Op {
		ops := make([]ipc.Op, n)
		for i := range ops {
			ops[i] = op
		}
		return ops
	}
	c, s, d := ipc.OpCounterInc, ipc.OpSyscall, ipc.OpDFISet
	for _, tc := range []struct {
		name      string
		ops       [][]ipc.Op // ops of each spy; nil offers it every op
		batch     []ipc.Message
		runs      [][]int // per spy
		syncs     int
		killedPID int32
	}{
		{"window", [][]ipc.Op{nil}, stream(1, repeat(150, c)...), [][]int{{lookAhead, lookAhead, 150 - 2*lookAhead}}, 0, 0},
		{"syscall", [][]ipc.Op{nil}, stream(1, c, c, s, c, s), [][]int{{3, 2}}, 2, 0},
		{"process", [][]ipc.Op{nil}, append(stream(1, c, c, c), stream(2, c, c)...), [][]int{{3, 2}}, 0, 0},
		{"sequence", [][]ipc.Op{nil}, []ipc.Message{msg(1, c, 1), msg(1, c, 2), msg(1, c, 4), msg(1, c, 5)}, [][]int{{2}}, 0, 1},
		{"route", [][]ipc.Op{{c}, {d}}, stream(1, c, c, d, d, d, c), [][]int{{2, 1}, {3}}, 0, 0},
		{"shared op", [][]ipc.Op{{c, d}, {c}}, stream(1, d, d, c, c), [][]int{{2, 1, 1}, {1, 1}}, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Both processes share the spies, so they see every run.
			spies := make([]*runSpy, len(tc.ops))
			chain := make([]policy.Policy, len(tc.ops))
			for i, ops := range tc.ops {
				spies[i] = &runSpy{opSpy: opSpy{name: fmt.Sprint("spy", i), ops: ops}}
				chain[i] = spies[i]
			}
			g := newFakeGate()
			v := New(func() []policy.Policy { return chain }, g)
			v.CheckSeq = true
			v.ProcessStarted(1)
			v.ProcessStarted(2)
			v.DeliverBatch(tc.batch)
			for i, want := range tc.runs {
				if !reflect.DeepEqual(spies[i].runs, want) {
					t.Errorf("spy %d was handed runs of %v, want %v", i, spies[i].runs, want)
				}
			}
			if len(g.syncs) != tc.syncs {
				t.Errorf("%d gates released, want %d", len(g.syncs), tc.syncs)
			}
			if killed := len(g.kills) > 0; killed != (tc.killedPID != 0) || killed && g.kills[tc.killedPID] == "" {
				t.Errorf("kills %v, want pid %d killed", g.kills, tc.killedPID)
			}
		})
	}
}

func TestViolationKillsByDefault(t *testing.T) {
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.ProcessStarted(1)
	v.Deliver(ipc.Message{Op: ipc.OpPointerDefine, PID: 1, Arg1: 0x10, Arg2: 0x20})
	v.Deliver(ipc.Message{Op: ipc.OpPointerCheck, PID: 1, Arg1: 0x10, Arg2: 0xbad})
	if g.kills[1] == "" {
		t.Fatal("violation did not kill")
	}
	if len(v.Violations(1)) != 1 {
		t.Errorf("violations = %v", v.Violations(1))
	}
}

func TestViolationContinuesWhenConfigured(t *testing.T) {
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.KillOnViolation = false
	v.ProcessStarted(1)
	v.Deliver(ipc.Message{Op: ipc.OpPointerCheck, PID: 1, Arg1: 0x10, Arg2: 0x20})
	if len(g.kills) != 0 {
		t.Error("killed despite KillOnViolation=false")
	}
	if len(v.Violations(1)) != 1 {
		t.Error("violation not recorded")
	}
	// Syscall sync still flows in continue mode.
	v.Deliver(ipc.Message{Op: ipc.OpSyscall, PID: 1})
	if len(g.syncs) != 1 {
		t.Error("sync withheld in continue mode")
	}
}

func TestSyscallSyncNotifiesKernel(t *testing.T) {
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.ProcessStarted(1)
	v.Deliver(ipc.Message{Op: ipc.OpSyscall, PID: 1, Arg1: 42})
	if len(g.syncs) != 1 || g.syncs[0] != 1 {
		t.Errorf("syncs = %v", g.syncs)
	}
}

func TestSyncWithheldAfterViolation(t *testing.T) {
	// A forged sync message sent after evidence of a violation must not
	// release the syscall (§2.2): the violation has already been recorded.
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.ProcessStarted(1)
	v.Deliver(ipc.Message{Op: ipc.OpPointerCheck, PID: 1, Arg1: 0x10, Arg2: 0xbad})
	v.Deliver(ipc.Message{Op: ipc.OpSyscall, PID: 1})
	if len(g.syncs) != 0 {
		t.Error("sync released after violation")
	}
	if g.kills[1] == "" {
		t.Error("violating process not killed")
	}
}

func TestUnknownPIDIgnored(t *testing.T) {
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.Deliver(ipc.Message{Op: ipc.OpPointerDefine, PID: 99, Arg1: 1, Arg2: 2})
	if v.TotalMessages() != 0 {
		t.Error("message from unregistered pid processed")
	}
}

func TestForkClonesPolicyState(t *testing.T) {
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.ProcessStarted(1)
	v.Deliver(ipc.Message{Op: ipc.OpPointerDefine, PID: 1, Arg1: 0x10, Arg2: 0x20})
	v.ProcessForked(1, 2)
	// Child sees the parent's pointer table.
	v.Deliver(ipc.Message{Op: ipc.OpPointerCheck, PID: 2, Arg1: 0x10, Arg2: 0x20})
	if len(g.kills) != 0 {
		t.Fatalf("child check against cloned state failed: %v", g.kills)
	}
	// Child state is independent.
	v.Deliver(ipc.Message{Op: ipc.OpPointerInvalidate, PID: 2, Arg1: 0x10})
	v.Deliver(ipc.Message{Op: ipc.OpPointerCheck, PID: 1, Arg1: 0x10, Arg2: 0x20})
	if g.kills[1] != "" {
		t.Error("parent state disturbed by child invalidate")
	}
}

func TestForkOfUnknownParentStartsFresh(t *testing.T) {
	v := New(cfiFactory, newFakeGate())
	v.ProcessForked(77, 78)
	if v.Policy(78, "cfi") == nil {
		t.Error("child of unknown parent has no policies")
	}
}

func TestProcessExitedDestroysContext(t *testing.T) {
	v := New(cfiFactory, newFakeGate())
	v.ProcessStarted(1)
	v.ProcessExited(1)
	if v.Policy(1, "cfi") != nil {
		t.Error("context survived exit")
	}
}

func TestSeqGapIsFatalIntegrityViolation(t *testing.T) {
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.CheckSeq = true
	v.ProcessStarted(1)
	v.Deliver(ipc.Message{Op: ipc.OpCounterInc, PID: 1, Seq: 1})
	v.Deliver(ipc.Message{Op: ipc.OpCounterInc, PID: 1, Seq: 2})
	v.Deliver(ipc.Message{Op: ipc.OpCounterInc, PID: 1, Seq: 5}) // gap
	if g.kills[1] == "" {
		t.Fatal("sequence gap not fatal")
	}
}

// countingGate records every gate interaction without deduplication, so
// tests can assert on the exact number of kill actions issued.
type countingGate struct {
	mu    sync.Mutex
	kills []int32
	syncs []int32
}

func (g *countingGate) NotifySyncReady(pid int32) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.syncs = append(g.syncs, pid)
}

func (g *countingGate) Kill(pid int32, reason string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.kills = append(g.kills, pid)
}

func TestCounterGapYieldsExactlyOneKillAction(t *testing.T) {
	// Regression: a counter gap used to take `continue` without advancing
	// lastSeq, so every later message of that process in the batch
	// re-detected the gap and appended another violation and another
	// gate.Kill. One gap must produce exactly one violation and one kill,
	// and the rest of the dead process's batch must be dropped.
	g := &countingGate{}
	v := New(cfiFactory, g)
	v.CheckSeq = true
	v.ProcessStarted(1)
	v.DeliverBatch([]ipc.Message{
		{Op: ipc.OpCounterInc, PID: 1, Seq: 1},
		{Op: ipc.OpCounterInc, PID: 1, Seq: 2},
		{Op: ipc.OpCounterInc, PID: 1, Seq: 5}, // gap: 3, 4 missing
		{Op: ipc.OpCounterInc, PID: 1, Seq: 6},
		{Op: ipc.OpCounterInc, PID: 1, Seq: 7},
		{Op: ipc.OpSyscall, PID: 1},
	})
	if len(g.kills) != 1 {
		t.Fatalf("kill actions = %d, want exactly 1", len(g.kills))
	}
	if len(v.Violations(1)) != 1 {
		t.Errorf("violations = %d, want 1", len(v.Violations(1)))
	}
	if len(g.syncs) != 0 {
		t.Error("sync released for a process dead from a counter gap")
	}
	// Post-gap messages were dropped, not evaluated.
	if got := v.Messages(1); got != 3 {
		t.Errorf("Messages = %d, want 3 (2 clean + the gap message)", got)
	}
}

func TestOneKillActionPerGapAcrossProcesses(t *testing.T) {
	// Two interleaved processes, each with one gap: one kill each, and the
	// innocent third process is untouched.
	g := &countingGate{}
	v := New(cfiFactory, g)
	v.CheckSeq = true
	for pid := int32(1); pid <= 3; pid++ {
		v.ProcessStarted(pid)
	}
	v.DeliverBatch([]ipc.Message{
		{Op: ipc.OpCounterInc, PID: 1, Seq: 1},
		{Op: ipc.OpCounterInc, PID: 2, Seq: 1},
		{Op: ipc.OpCounterInc, PID: 3, Seq: 1},
		{Op: ipc.OpCounterInc, PID: 1, Seq: 9}, // gap for 1
		{Op: ipc.OpCounterInc, PID: 2, Seq: 7}, // gap for 2
		{Op: ipc.OpCounterInc, PID: 1, Seq: 10},
		{Op: ipc.OpCounterInc, PID: 2, Seq: 8},
		{Op: ipc.OpCounterInc, PID: 3, Seq: 2},
	})
	counts := map[int32]int{}
	for _, pid := range g.kills {
		counts[pid]++
	}
	if counts[1] != 1 || counts[2] != 1 || counts[3] != 0 {
		t.Errorf("kill actions per pid = %v, want exactly one for 1 and 2", counts)
	}
	if v.Messages(3) != 2 {
		t.Errorf("innocent process delivered %d, want 2", v.Messages(3))
	}
}

func TestViolationKillDropsRestOfBatch(t *testing.T) {
	// A policy-violation kill (not just a seq gap) also marks the context
	// dead: the remainder of the batch is dropped and a trailing forged
	// sync message cannot release the syscall.
	g := &countingGate{}
	v := New(cfiFactory, g)
	v.ProcessStarted(1)
	v.DeliverBatch([]ipc.Message{
		{Op: ipc.OpPointerCheck, PID: 1, Arg1: 0x10, Arg2: 0xbad}, // violation
		{Op: ipc.OpPointerCheck, PID: 1, Arg1: 0x20, Arg2: 0xbad}, // would violate again
		{Op: ipc.OpSyscall, PID: 1},
	})
	if len(g.kills) != 1 {
		t.Errorf("kill actions = %d, want 1", len(g.kills))
	}
	if len(v.Violations(1)) != 1 {
		t.Errorf("violations = %d, want 1 (context dead after first)", len(v.Violations(1)))
	}
	if len(g.syncs) != 0 {
		t.Error("sync released after fatal violation")
	}
}

func TestProcessKilledDropsSubsequentMessages(t *testing.T) {
	// The kernel's kill notification (kernel.Listener's ProcessKilled) must stop the
	// verifier from evaluating further messages, bounding the context's
	// violation log between kill and ProcessExited.
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.ProcessStarted(1)
	v.Deliver(ipc.Message{Op: ipc.OpCounterInc, PID: 1, Arg1: 1})
	v.ProcessKilled(1, "epoch expired")
	for i := 0; i < 50; i++ {
		v.Deliver(ipc.Message{Op: ipc.OpPointerCheck, PID: 1, Arg1: 0x10, Arg2: 0xbad})
	}
	if got := len(v.Violations(1)); got != 0 {
		t.Errorf("violations accumulated on a dead context: %d", got)
	}
	if v.Messages(1) != 1 {
		t.Errorf("Messages = %d, want 1 (post-kill messages dropped)", v.Messages(1))
	}
	// Unknown PIDs are a no-op.
	v.ProcessKilled(42, "x")
}

func TestGateKillBoundsContextViaKernel(t *testing.T) {
	// Full wiring: an epoch-expiry kill in the kernel propagates over the
	// privileged channel and stops verifier-side evaluation.
	v := New(cfiFactory, nil)
	k := kernel.New(v)
	v.gate = k
	pid := k.Register()
	k.Epoch = 10 * time.Millisecond
	if err := k.SyscallEnter(pid, 1); err == nil {
		t.Fatal("epoch expiry did not fail the syscall")
	}
	for i := 0; i < 20; i++ {
		v.Deliver(ipc.Message{Op: ipc.OpPointerCheck, PID: pid, Arg1: 0x10, Arg2: 0xbad})
	}
	if got := len(v.Violations(pid)); got != 0 {
		t.Errorf("gate-killed process accumulated %d violations", got)
	}
}

// seqReceiver replays pre-sequenced messages in caller-controlled batch
// shapes, so tests can place a sequence gap exactly at a batch boundary.
type seqReceiver struct {
	batches [][]ipc.Message
	next    int
}

func (r *seqReceiver) RecvBatch(out []ipc.Message) (int, bool, error) {
	if r.next >= len(r.batches) {
		return 0, false, nil
	}
	n := copy(out, r.batches[r.next])
	r.next++
	return n, true, nil
}

func TestSeqGapAcrossDeliverBatchBoundary(t *testing.T) {
	// A gap that straddles two batches must be detected: the per-process
	// lastSeq carries across DeliverBatch calls.
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.CheckSeq = true
	v.ProcessStarted(1)
	v.DeliverBatch([]ipc.Message{
		{Op: ipc.OpCounterInc, PID: 1, Seq: 1},
		{Op: ipc.OpCounterInc, PID: 1, Seq: 2},
		{Op: ipc.OpCounterInc, PID: 1, Seq: 3},
	})
	if g.kills[1] != "" {
		t.Fatalf("consecutive batch killed: %v", g.kills[1])
	}
	v.DeliverBatch([]ipc.Message{
		{Op: ipc.OpCounterInc, PID: 1, Seq: 5}, // gap: 4 missing
	})
	if g.kills[1] == "" {
		t.Fatal("sequence gap across batch boundary not fatal")
	}
}

func TestSeqGapAcrossPumpBatches(t *testing.T) {
	// Same property through the full pipelined Pump: two RecvBatch bursts
	// with the gap at the boundary.
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.CheckSeq = true
	v.ProcessStarted(7)
	r := &seqReceiver{batches: [][]ipc.Message{
		{{Op: ipc.OpCounterInc, PID: 7, Seq: 1}, {Op: ipc.OpCounterInc, PID: 7, Seq: 2}},
		{{Op: ipc.OpCounterInc, PID: 7, Seq: 9}}, // gap straddles the burst boundary
	}}
	v.Pump(r)
	if g.kills[7] == "" {
		t.Fatal("sequence gap across RecvBatch bursts not fatal")
	}
	if v.Messages(7) != 3 {
		t.Errorf("Messages = %d, want 3", v.Messages(7))
	}
}

func TestDeliverBatchMixedPIDsMatchesScalar(t *testing.T) {
	// An interleaved multi-process burst through DeliverBatch must leave
	// the same per-process state as scalar delivery.
	mk := func() (*Verifier, *fakeGate) {
		g := newFakeGate()
		v := New(cfiFactory, g)
		for pid := int32(1); pid <= 4; pid++ {
			v.ProcessStarted(pid)
		}
		return v, g
	}
	var batch []ipc.Message
	for i := 0; i < 120; i++ {
		pid := int32(1 + i%4)
		batch = append(batch, ipc.Message{Op: ipc.OpCounterInc, PID: pid, Arg1: uint64(pid)})
	}
	vb, gb := mk()
	vb.DeliverBatch(batch)
	vs, gs := mk()
	for _, m := range batch {
		vs.Deliver(m)
	}
	for pid := int32(1); pid <= 4; pid++ {
		if vb.Messages(pid) != vs.Messages(pid) {
			t.Errorf("pid %d: batch=%d scalar=%d messages", pid, vb.Messages(pid), vs.Messages(pid))
		}
		cb := vb.Policy(pid, "counter").(*policy.Counter)
		cs := vs.Policy(pid, "counter").(*policy.Counter)
		if cb.Count(uint64(pid)) != cs.Count(uint64(pid)) {
			t.Errorf("pid %d: counter batch=%d scalar=%d", pid, cb.Count(uint64(pid)), cs.Count(uint64(pid)))
		}
	}
	if len(gb.kills) != 0 || len(gs.kills) != 0 {
		t.Errorf("unexpected kills: batch=%v scalar=%v", gb.kills, gs.kills)
	}
	if vb.TotalMessages() != vs.TotalMessages() {
		t.Errorf("TotalMessages: batch=%d scalar=%d", vb.TotalMessages(), vs.TotalMessages())
	}
}

func TestPumpPreservesPerProcessOrdering(t *testing.T) {
	// Pointer define/check pairs are order-sensitive: any reordering
	// within one process's stream would produce a false violation. Drive
	// an interleaved multi-process stream through one drain.
	g := newFakeGate()
	v := New(cfiFactory, g)
	const procs = 8
	for pid := int32(1); pid <= procs; pid++ {
		v.ProcessStarted(pid)
	}
	ch := ipc.NewSharedRing(1 << 10)
	done := make(chan struct{})
	go func() {
		v.Pump(ch.Receiver)
		close(done)
	}()
	for i := 0; i < 400; i++ {
		pid := int32(1 + i%procs)
		addr := uint64(0x1000 + i)
		ch.Sender.Send(ipc.Message{Op: ipc.OpPointerDefine, PID: pid, Arg1: addr, Arg2: addr + 1})
		ch.Sender.Send(ipc.Message{Op: ipc.OpPointerCheck, PID: pid, Arg1: addr, Arg2: addr + 1})
		ch.Sender.Send(ipc.Message{Op: ipc.OpPointerInvalidate, PID: pid, Arg1: addr})
	}
	ch.Close()
	<-done
	if len(g.kills) != 0 {
		t.Fatalf("ordered stream produced violations: %v", g.kills)
	}
	var total uint64
	for pid := int32(1); pid <= procs; pid++ {
		total += v.Messages(pid)
	}
	if total != 1200 {
		t.Errorf("delivered %d messages, want 1200", total)
	}
}

func TestForkExitRaceAcrossProcesses(t *testing.T) {
	// Concurrent fork/exit lifecycle events while messages for parents and
	// children are in flight, each process under its own context lock. Run under -race; the
	// invariant checked here is absence of data races, deadlocks, and
	// kills.
	g := newFakeGate()
	v := New(cfiFactory, g)
	const parents = 4
	const children = 8
	for pid := int32(1); pid <= parents; pid++ {
		v.ProcessStarted(pid)
		v.Deliver(ipc.Message{Op: ipc.OpPointerDefine, PID: pid, Arg1: 0x10, Arg2: 0x20})
	}
	var wg sync.WaitGroup
	for pid := int32(1); pid <= parents; pid++ {
		pid := pid
		wg.Add(1)
		go func() { // message stream for the parent
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v.Deliver(ipc.Message{Op: ipc.OpCounterInc, PID: pid, Arg1: 1})
			}
		}()
		wg.Add(1)
		go func() { // forks and exits of children, while messages flow
			defer wg.Done()
			for c := 0; c < children; c++ {
				child := 100*pid + int32(c)
				v.ProcessForked(pid, child)
				v.DeliverBatch([]ipc.Message{
					{Op: ipc.OpPointerCheck, PID: child, Arg1: 0x10, Arg2: 0x20},
					{Op: ipc.OpCounterInc, PID: child, Arg1: 2},
				})
				v.ProcessExited(child)
			}
		}()
	}
	wg.Wait()
	if len(g.kills) != 0 {
		t.Fatalf("race workload produced kills: %v", g.kills)
	}
	for pid := int32(1); pid <= parents; pid++ {
		if v.Messages(pid) != 201 {
			t.Errorf("parent %d: %d messages, want 201", pid, v.Messages(pid))
		}
	}
}

// errReceiver returns messages then a configurable error.
type errReceiver struct {
	msgs []ipc.Message
	err  error
}

func (r *errReceiver) RecvBatch(out []ipc.Message) (int, bool, error) {
	if len(r.msgs) > 0 {
		n := copy(out, r.msgs)
		r.msgs = r.msgs[n:]
		return n, true, nil
	}
	// Model a partially-filled message carrying a stale PID left in the
	// buffer past n: the drain must not use it for attribution.
	out[0] = ipc.Message{PID: 1}
	return 0, false, r.err
}

func TestPumpKillsOnlyAttributedErrors(t *testing.T) {
	// Unattributed receive error: no process may be killed, even though
	// the torn message carries a plausible (stale) PID.
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.ProcessStarted(1)
	v.Pump(&errReceiver{
		msgs: []ipc.Message{{Op: ipc.OpCounterInc, PID: 1, Arg1: 1}},
		err:  ipc.ErrIntegrity,
	})
	if len(g.kills) != 0 {
		t.Fatalf("unattributed error killed a process: %v", g.kills)
	}
	if v.Messages(1) != 1 {
		t.Errorf("messages before the error lost: %d", v.Messages(1))
	}

	// Attributed error: exactly the named process dies.
	g2 := newFakeGate()
	v2 := New(cfiFactory, g2)
	v2.ProcessStarted(1)
	v2.ProcessStarted(2)
	v2.Pump(&errReceiver{err: &ipc.ProcessError{PID: 2, Err: ipc.ErrIntegrity}})
	if g2.kills[2] == "" {
		t.Error("attributed error did not kill the responsible process")
	}
	if g2.kills[1] != "" {
		t.Error("attributed error killed an unrelated process")
	}
}

func TestPumpDrainsChannel(t *testing.T) {
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.ProcessStarted(1)
	ch := ipc.NewSharedRing(64)
	done := make(chan struct{})
	go func() {
		v.Pump(ch.Receiver)
		close(done)
	}()
	for i := 0; i < 20; i++ {
		ch.Sender.Send(ipc.Message{Op: ipc.OpCounterInc, PID: 1, Arg1: 3})
	}
	ch.Close()
	<-done
	cnt := v.Policy(1, "counter").(*policy.Counter)
	if cnt.Count(3) != 20 {
		t.Errorf("counter = %d, want 20", cnt.Count(3))
	}
}

func TestEndToEndWithRealKernel(t *testing.T) {
	// Wire verifier + kernel the way the framework does, and drive the
	// full Figure 1 interaction: register, messages, syscall sync, attack,
	// kill.
	v := New(cfiFactory, nil)
	k := kernel.New(v)
	v.gate = k // wired after construction, before any concurrency

	pid := k.Register()
	// Program defines a pointer and performs a syscall.
	v.Deliver(ipc.Message{Op: ipc.OpPointerDefine, PID: pid, Arg1: 0x100, Arg2: 0x200})
	v.Deliver(ipc.Message{Op: ipc.OpSyscall, PID: pid})
	if err := k.SyscallEnter(pid, 1); err != nil {
		t.Fatalf("clean syscall gated: %v", err)
	}
	// Attacker corrupts the pointer; the check message betrays it.
	v.Deliver(ipc.Message{Op: ipc.OpPointerCheck, PID: pid, Arg1: 0x100, Arg2: 0xbad})
	if killed, _ := k.Killed(pid); !killed {
		t.Fatal("corruption did not kill the process")
	}
	if err := k.SyscallEnter(pid, 2); err == nil {
		t.Error("syscall after kill succeeded")
	}
}
