package verifier

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"herqules/internal/ipc"
	"herqules/internal/policy"
	"herqules/internal/telemetry"
)

func TestSeqViolationReasonClassification(t *testing.T) {
	// The three counter-check failure classes are distinct fault signatures
	// (§3.1.1): the chaos injector's duplicate, reorder and drop faults — and
	// a real replay attack vs a real lossy channel — must be told apart by
	// the kill reason alone.
	cases := []struct {
		name      string
		got, last uint64
		want      string
	}{
		{"duplicate", 5, 5, "message counter duplicate: 5 delivered twice"},
		{"replay of old message", 2, 7, "message counter replay/reorder: got 2 after 7"},
		{"reorder by one", 6, 7, "message counter replay/reorder: got 6 after 7"},
		{"single gap", 7, 5, "message counter gap: got 7 after 5 (1 missing)"},
		{"burst loss", 100, 5, "message counter gap: got 100 after 5 (94 missing)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := seqViolationReason(tc.got, tc.last); got != tc.want {
				t.Errorf("seqViolationReason(%d, %d) = %q, want %q", tc.got, tc.last, got, tc.want)
			}
		})
	}
}

func TestSeqViolationReasonsReachTheGate(t *testing.T) {
	// End-to-end over Deliver: each fault class kills with its own reason.
	cases := []struct {
		name string
		seqs []uint64
		want string
	}{
		{"duplicate", []uint64{1, 2, 2}, "duplicate"},
		{"replay", []uint64{1, 2, 3, 2}, "replay/reorder"},
		{"gap", []uint64{1, 2, 9}, "gap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := newFakeGate()
			v := New(cfiFactory, g)
			v.CheckSeq = true
			v.ProcessStarted(1)
			for _, seq := range tc.seqs {
				v.Deliver(ipc.Message{Op: ipc.OpCounterInc, PID: 1, Seq: seq})
			}
			if reason := g.kills[1]; !strings.Contains(reason, tc.want) {
				t.Errorf("kill reason %q does not mention %q", reason, tc.want)
			}
		})
	}
}

// bombPolicy panics when it sees the trigger message — a stand-in for any
// bug in policy evaluation code. It consumes counter messages alone.
type bombPolicy struct {
	policy.Hooks
	trigger uint64
}

func (p *bombPolicy) Name() string  { return "bomb" }
func (p *bombPolicy) Ops() []ipc.Op { return []ipc.Op{ipc.OpCounterInc} }
func (p *bombPolicy) Handle(m ipc.Message) *policy.Violation {
	if m.Op == ipc.OpCounterInc && m.Arg1 == p.trigger {
		panic("bomb: policy bug")
	}
	return nil
}
func (p *bombPolicy) HandleRun(ms []ipc.Message) (int, *policy.Violation) {
	for i := range ms {
		p.Handle(ms[i])
	}
	return len(ms), nil
}
func (p *bombPolicy) Clone() policy.Policy { return &bombPolicy{trigger: p.trigger} }
func (p *bombPolicy) Entries() int         { return 0 }

func bombFactory() []policy.Policy {
	return []policy.Policy{&bombPolicy{trigger: 0xdead}}
}

func TestPolicyPanicKillsProcessFailClosed(t *testing.T) {
	// A panic inside policy evaluation is contained per policy, per process:
	// the detonating process is killed fail-closed with the policy named in
	// the reason, while every other process keeps validating. (Poisoning
	// remains, via safeDeliver, for defects in the delivery machinery itself;
	// see failure semantics in DESIGN.md.)
	g := newFakeGate()
	m := telemetry.New(1)
	v := NewWithMetrics(bombFactory, g, m)
	v.ProcessStarted(1)
	v.ProcessStarted(2)

	ps := v.NewPumpSet()
	done, err := ps.Attach(ipc.NewReplay([]ipc.Message{
		{Op: ipc.OpCounterInc, PID: 1, Arg1: 1, Seq: 1},
		{Op: ipc.OpCounterInc, PID: 1, Arg1: 0xdead, Seq: 2}, // detonates
	}))
	if err != nil {
		t.Fatal(err)
	}
	<-done
	ps.Close()

	if got := v.Poisoned(); got != 0 {
		t.Fatalf("Poisoned = %d, want 0 (panic contained per policy)", got)
	}
	reason := g.kills[1]
	if reason == "" {
		t.Fatal("detonating pid 1 not killed")
	}
	if !strings.Contains(reason, "bomb") || !strings.Contains(reason, "panicked") {
		t.Errorf("pid 1 kill reason %q lacks policy/panic attribution", reason)
	}
	if g.kills[2] != "" {
		t.Errorf("bystander pid 2 killed: %s", g.kills[2])
	}
	if wedged, detail := v.WedgedFor(1); wedged {
		t.Errorf("pid 1 reported wedged after contained policy panic: %q", detail)
	}
	if got := m.Snapshot().Counters["verifier.poisoned"].Total; got != 0 {
		t.Errorf("poisoned counter = %d, want 0", got)
	}

	// A process registered after the detonation is admitted and validated,
	// and if it trips the same bug it is killed individually, with its own
	// attribution.
	v.ProcessStarted(3)
	if g.kills[3] != "" {
		t.Errorf("process started after contained panic killed at birth: %s", g.kills[3])
	}
	v.DeliverBatch([]ipc.Message{{Op: ipc.OpCounterInc, PID: 3, Arg1: 0xdead, Seq: 1}})
	if g.kills[3] == "" {
		t.Error("second detonation (pid 3) not killed")
	} else if !strings.Contains(g.kills[3], "bomb") {
		t.Errorf("pid 3 kill reason %q lacks policy attribution", g.kills[3])
	}
	// The already-dead process's messages are dropped, not re-evaluated.
	before := v.Messages(1)
	v.DeliverBatch([]ipc.Message{{Op: ipc.OpCounterInc, PID: 1, Arg1: 0xdead, Seq: 3}})
	if got := v.Messages(1); got != before {
		t.Errorf("dead process evaluated messages: Messages = %d, want %d", got, before)
	}
}

func TestPolicyPanicDoesNotDisturbOtherProcesses(t *testing.T) {
	// The victim's detonation kills only the victim, and the bystander's
	// stream keeps validating afterwards.
	g := newFakeGate()
	v := New(bombFactory, g)
	victim, bystander := int32(1), int32(2)
	v.ProcessStarted(victim)
	v.ProcessStarted(bystander)

	ps := v.NewPumpSet()
	doneV, err := ps.Attach(ipc.NewReplay([]ipc.Message{
		{Op: ipc.OpCounterInc, PID: victim, Arg1: 0xdead, Seq: 1},
	}))
	if err != nil {
		t.Fatal(err)
	}
	<-doneV
	doneB, err := ps.Attach(ipc.NewReplay([]ipc.Message{
		{Op: ipc.OpCounterInc, PID: bystander, Arg1: 1, Seq: 1},
		{Op: ipc.OpCounterInc, PID: bystander, Arg1: 2, Seq: 2},
	}))
	if err != nil {
		t.Fatal(err)
	}
	<-doneB
	ps.Close()

	if g.kills[victim] == "" {
		t.Error("detonating victim not killed")
	}
	if g.kills[bystander] != "" {
		t.Errorf("bystander killed: %s", g.kills[bystander])
	}
	if got := v.Messages(bystander); got != 2 {
		t.Errorf("bystander messages = %d, want 2", got)
	}
	if wedged, _ := v.WedgedFor(bystander); wedged {
		t.Error("bystander reported wedged after contained policy panic")
	}
}

// bombGate panics when told pid's system call may resume — a stand-in for any
// bug in the delivery machinery outside policy code — and counts every kill.
type bombGate struct {
	pid   int32
	mu    sync.Mutex
	kills map[int32][]string
	syncs map[int32]int
}

func (g *bombGate) NotifySyncReady(pid int32) {
	if pid == g.pid {
		panic("bomb: gate bug")
	}
	g.mu.Lock()
	g.syncs[pid]++
	g.mu.Unlock()
}

func (g *bombGate) Kill(pid int32, reason string) {
	g.mu.Lock()
	g.kills[pid] = append(g.kills[pid], reason)
	g.mu.Unlock()
}

func TestDeliveryPanicOnDrainKillsOnlyItsProcess(t *testing.T) {
	// A real panic on the delivery path, thrown on a source's own drain
	// goroutine: the victim's context is poisoned and the victim dies exactly
	// once, but the drain outlives the panic and keeps emptying its channel —
	// a producer must never wedge behind a dead consumer — while every other
	// process, whatever its PID, keeps validating and passing its gates.
	const victim = int32(1)
	g := &bombGate{pid: victim, kills: make(map[int32][]string), syncs: make(map[int32]int)}
	v := New(cfiFactory, g)
	others := []int32{2, 3}
	for _, pid := range append([]int32{victim}, others...) {
		v.ProcessStarted(pid)
	}

	// Every tenth message asks for a system call; the victim's first one
	// detonates. The rings are far smaller than the streams, so a Send
	// returns only because the drain took something out.
	const n = 5000
	ps := v.NewPumpSet()
	var producers sync.WaitGroup
	var dones []<-chan struct{}
	for _, pid := range append([]int32{victim}, others...) {
		ch := ipc.NewSharedRing(1 << 6)
		done, err := ps.Attach(ch.Receiver)
		if err != nil {
			t.Fatal(err)
		}
		dones = append(dones, done)
		producers.Add(1)
		go func(pid int32) {
			defer producers.Done()
			defer ch.Close()
			for i := 1; i <= n; i++ {
				m := ipc.Message{Op: ipc.OpCounterInc, PID: pid, Arg1: 1}
				if i%10 == 0 {
					m.Op = ipc.OpSyscall
				}
				if err := ch.Sender.Send(m); err != nil {
					t.Errorf("pid %d send %d: %v", pid, i, err)
					return
				}
			}
		}(pid)
	}
	// A producer or a drain wedged behind the panic hangs here, and the test
	// timeout's goroutine dump names it.
	producers.Wait()
	for _, done := range dones {
		<-done
	}
	ps.Close()

	if got := v.Poisoned(); got != 1 {
		t.Fatalf("Poisoned = %d, want 1", got)
	}
	wedged, why := v.WedgedFor(victim)
	if !wedged || !strings.Contains(why, "delivery panic: bomb: gate bug") {
		t.Errorf("WedgedFor(victim) = %v, %q; want it wedged by the contained panic", wedged, why)
	}
	if k := g.kills[victim]; len(k) != 1 || !strings.Contains(k[0], "delivery panic") {
		t.Errorf("victim: kills %q, want exactly one, for the delivery panic", k)
	}
	if got := v.Messages(victim); got >= n {
		t.Errorf("victim had %d of %d messages validated after its poison", got, n)
	}
	for _, pid := range others {
		if k := g.kills[pid]; len(k) != 0 {
			t.Errorf("pid %d killed by the victim's poison: %q", pid, k)
		}
		if wedged, why := v.WedgedFor(pid); wedged {
			t.Errorf("pid %d reported wedged: %q", pid, why)
		}
		if got := v.Messages(pid); got != n {
			t.Errorf("pid %d: %d messages validated, want %d", pid, got, n)
		}
		if got := g.syncs[pid]; got != n/10 {
			t.Errorf("pid %d: %d system calls released, want %d", pid, got, n/10)
		}
	}
}

// failingReceiver returns one clean burst, then a burst together with err,
// and counts every call: a drain that reads again after the error fails the
// test.
type failingReceiver struct {
	bursts [2][]ipc.Message
	err    error
	calls  int
}

func (r *failingReceiver) RecvBatch(out []ipc.Message) (int, bool, error) {
	r.calls++
	switch r.calls {
	case 1:
		return copy(out, r.bursts[0]), true, nil
	case 2:
		return copy(out, r.bursts[1]), false, r.err
	}
	return 0, false, errors.New("read again after a terminal error")
}

func TestPumpEndsAtFirstRecvError(t *testing.T) {
	// Any receive error ends the drain at its first occurrence. The
	// messages that came with it are still delivered, and — the error being
	// unattributed — no one is killed: fail-closed for the process comes
	// from the kernel epoch, not from a guess at the guilty PID.
	g := newFakeGate()
	m := telemetry.New(1)
	v := NewWithMetrics(cfiFactory, g, m)
	v.ProcessStarted(1)
	r := &failingReceiver{
		bursts: [2][]ipc.Message{
			{{Op: ipc.OpCounterInc, PID: 1, Arg1: 1}},
			{{Op: ipc.OpCounterInc, PID: 1, Arg1: 2}, {Op: ipc.OpCounterInc, PID: 1, Arg1: 3}},
		},
		err: errors.New("ring momentarily unreadable"),
	}
	v.Pump(r)
	if r.calls != 2 {
		t.Errorf("RecvBatch called %d times, want 2: the drain must stop at the error", r.calls)
	}
	if got := v.Messages(1); got != 3 {
		t.Errorf("Messages = %d, want 3 (the burst returned with the error delivered)", got)
	}
	if len(g.kills) != 0 {
		t.Fatalf("unattributed receive error killed: %v", g.kills)
	}
	if got := m.Snapshot().Counters["verifier.recv_terminal_errors"].Total; got != 1 {
		t.Errorf("recv_terminal_errors = %d, want 1", got)
	}
}
