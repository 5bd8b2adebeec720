package verifier

import (
	"reflect"
	"strings"
	"testing"

	"herqules/internal/ipc"
	"herqules/internal/policy"
)

// noPrefetch hides a policy's Prefetch method and its Ops list (and nothing the
// delivery path needs): the embedded interface promotes Policy's methods only,
// and the nil Ops has the verifier offer the policy every message, as it did
// before policies declared what they consume.
type noPrefetch struct{ policy.Policy }

func (noPrefetch) Ops() []ipc.Op { return nil }

// noPrefetchSealer does the same for the sealer, which must stay a Sealer and
// a KeyBinder to work at all.
type noPrefetchSealer struct{ policy.Sealer }

func (w noPrefetchSealer) BindKeyring(kr *policy.Keyring) {
	w.Sealer.(policy.KeyBinder).BindKeyring(kr)
}

// lookAheadStream is a ring_policy-shaped stream for two processes, sized so
// cfi's and dfi's tables pass the look-ahead size gate: a prefill, then a mix
// of every op of the full chain drawn over the whole working set, with one
// fault of each kind late in pid 2's stream. The processes alternate in runs
// of 100 messages, so look-ahead windows straddle process boundaries.
func lookAheadStream() [][]ipc.Message {
	const (
		ptrs, dfiAddrs, slots = 32768, 32768, 512
		steady                = 40_000
	)
	ptr := func(i uint64) uint64 { return 0x7f00_0000_0000 + 8*i }
	dfi := func(i uint64) uint64 { return 0x6000_0000_0000 + 8*i }
	alloc := func(s uint64) uint64 { return 0x5500_0000_0000 + 256*s }
	var per [2][]ipc.Message
	for p := range per {
		pid := int32(p + 1)
		add := func(op ipc.Op, a1, a2 uint64) {
			per[p] = append(per[p], ipc.Message{Op: op, PID: pid, Arg1: a1, Arg2: a2})
		}
		for i := uint64(0); i < ptrs; i++ {
			add(ipc.OpPointerDefine, ptr(i), i|1)
		}
		add(ipc.OpDFIDeclare, 0, 1)
		add(ipc.OpDFIDeclare, 1, 2)
		for i := uint64(0); i < dfiAddrs; i++ {
			add(ipc.OpDFISet, dfi(i), 1+i%2)
		}
		for s := uint64(0); s < slots; s += 2 {
			add(ipc.OpAllocCreate, alloc(s), 128)
		}
		x := uint64(pid)
		for n := 0; n < steady; n++ {
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			r := x * 0x2545f4914f6cdd1d
			i := r >> 8
			switch pick := r % 100; {
			case pick < 40:
				add(ipc.OpPointerCheck, ptr(i%ptrs), i%ptrs|1)
			case pick < 50:
				add(ipc.OpPointerCheckInvalidate, ptr(i%ptrs), i%ptrs|1)
				add(ipc.OpPointerDefine, ptr(i%ptrs), i%ptrs|1)
			case pick < 62:
				add(ipc.OpDFISet, dfi(i%dfiAddrs), 1+i%dfiAddrs%2)
			case pick < 80:
				add(ipc.OpDFICheck, dfi(i%dfiAddrs), i%dfiAddrs%2)
			case pick < 90:
				add(ipc.OpAllocCheck, alloc(2*(i%(slots/2)))+i>>32%128, 0)
			case pick < 95:
				add(ipc.OpAllocCreate, alloc(2*(i%(slots/2))+1), 128)
				add(ipc.OpAllocDestroy, alloc(2*(i%(slots/2))+1), 0)
			default:
				add(ipc.OpCounterInc, i%8, 0)
			}
			if pid == 2 && n == steady-1000 {
				add(ipc.OpPointerCheck, ptr(7), 0xbad)       // cfi
				add(ipc.OpDFICheck, dfi(8), 1)               // dfi: writer 1 is outside set 1
				add(ipc.OpAllocCheck, alloc(slots+10), 0)    // memsafety: never allocated, so not temporal's
				add(ipc.OpAllocCreate, ^uint64(0)-7, 16)     // both allocation policies: wraps
				add(ipc.OpPointerCheck, 0xdead_0000_0000, 1) // cfi: an address the table never saw
			}
		}
	}
	var runs [][]ipc.Message
	for len(per[0])+len(per[1]) > 0 {
		for p := range per {
			n := min(100, len(per[p]))
			if n > 0 {
				runs = append(runs, per[p][:n])
				per[p] = per[p][n:]
			}
		}
	}
	return runs
}

// TestLookAheadChangesNothingObservable delivers one sealed stream through
// two verifiers that differ only in whether the policies expose Prefetch and
// Ops. The look-ahead pass is a hint and op routing only skips calls that
// would have returned at once: violations, message counts and entry counts
// must be identical with and without them.
func TestLookAheadChangesNothingObservable(t *testing.T) {
	names := []string{"cfi", "memsafety", "counter", "dfi", "temporal", "hmac"}
	plain, err := policy.SetFactory(names...)
	if err != nil {
		t.Fatal(err)
	}
	hidden := func() []policy.Policy {
		ps := plain()
		for i, p := range ps {
			if sl, ok := p.(policy.Sealer); ok {
				ps[i] = noPrefetchSealer{sl}
			} else {
				ps[i] = noPrefetch{p}
			}
		}
		return ps
	}
	runs := lookAheadStream()
	type outcome struct {
		violations [2][]policy.Violation
		messages   [2]uint64
		entries    [2]int
	}
	deliver := func(factory PolicyFactory, wantPrefetchers, wantOnSyscall int) outcome {
		kr := policy.NewKeyringSeeded(1)
		v := NewSharded(factory, nil, 1)
		v.CheckSeq = true
		v.KillOnViolation = false // keep evaluating past the faults
		v.SetKeyring(kr)
		var keys [2]ipc.MacKey
		for p := range keys {
			kr.Program(int32(p + 1))
			keys[p], _ = kr.Key(int32(p + 1))
			v.ProcessStarted(int32(p + 1))
		}
		pc := v.shards[0].procs[1]
		if got := len(pc.prefetchers); got != wantPrefetchers {
			t.Fatalf("process context holds %d prefetchers, want %d", got, wantPrefetchers)
		}
		if got, beyond := len(pc.byOp[ipc.OpSyscall]), len(pc.byOp[ipc.NumOps]); got != wantOnSyscall || beyond != wantOnSyscall {
			t.Fatalf("an op no policy lists is routed to %d policies, one beyond the table to %d; want %d", got, beyond, wantOnSyscall)
		}
		var seq [2]uint64
		batch := make([]ipc.Message, 0, DefaultBatchSize)
		for _, run := range runs {
			for _, m := range run {
				p := m.PID - 1
				seq[p]++
				m.Seq = seq[p]
				m.Mac = ipc.MacSeal(keys[p], m, m.Seq)
				if batch = append(batch, m); len(batch) == cap(batch) {
					v.DeliverBatch(batch)
					batch = batch[:0]
				}
			}
		}
		v.DeliverBatch(batch)
		var o outcome
		for p := range keys {
			pid := int32(p + 1)
			for _, viol := range v.Violations(pid) {
				o.violations[p] = append(o.violations[p], *viol)
			}
			o.messages[p] = v.Messages(pid)
			o.entries[p], _ = v.Entries(pid)
			if o.messages[p] != seq[p] {
				t.Fatalf("pid %d: %d of %d messages evaluated", pid, o.messages[p], seq[p])
			}
		}
		return o
	}
	with, without := deliver(plain, 2, 0), deliver(hidden, 0, len(names)-1)
	if !reflect.DeepEqual(with, without) {
		t.Fatalf("look-ahead and op routing changed the outcome:\nwith:    %+v\nwithout: %+v", with, without)
	}
	if len(with.violations[0]) != 0 {
		t.Errorf("clean pid 1 flagged: %+v", with.violations[0][0])
	}
	byPolicy := map[string]int{}
	for _, viol := range with.violations[1] {
		byPolicy[viol.Policy]++
	}
	if want := map[string]int{"cfi": 2, "dfi": 1, "memsafety": 2, "temporal": 1}; !reflect.DeepEqual(byPolicy, want) {
		t.Errorf("pid 2 violations by policy = %v, want %v", byPolicy, want)
	}
}

// prefetchBomb is a bombPolicy whose Prefetch panics on the trigger instead.
type prefetchBomb struct{ bombPolicy }

func (p *prefetchBomb) Handle(ipc.Message) *policy.Violation { return nil }
func (p *prefetchBomb) Prefetch(ms []ipc.Message) {
	for _, m := range ms {
		if m.Arg1 == p.trigger {
			panic("bomb: prefetch bug")
		}
	}
}

// TestPrefetchPanicKillsOnlyItsProcess: Prefetch is policy code like Handle,
// so its panic is an attributed kill of the process whose window it was
// looking at, not a poisoned shard.
func TestPrefetchPanicKillsOnlyItsProcess(t *testing.T) {
	g := newFakeGate()
	v := NewSharded(func() []policy.Policy {
		return []policy.Policy{&prefetchBomb{bombPolicy{trigger: 0xdead}}, policy.NewCounter()}
	}, g, 1)
	v.ProcessStarted(1)
	v.ProcessStarted(2)
	v.DeliverBatch([]ipc.Message{
		{Op: ipc.OpCounterInc, PID: 2, Arg1: 1},
		{Op: ipc.OpCounterInc, PID: 2, Arg1: 1},
	})
	batch := make([]ipc.Message, lookAhead+2)
	for i := range batch {
		batch[i] = ipc.Message{Op: ipc.OpCounterInc, PID: 1, Arg1: 1}
	}
	batch[lookAhead+1].Arg1 = 0xdead // in the second window
	batch = append(batch, ipc.Message{Op: ipc.OpCounterInc, PID: 2, Arg1: 1})
	v.DeliverBatch(batch)

	if got := v.PoisonedShards(); got != 0 {
		t.Fatalf("PoisonedShards = %d, want 0", got)
	}
	if reason := g.kills[1]; !strings.Contains(reason, `"bomb" panicked`) {
		t.Errorf("pid 1 kill reason %q lacks the policy's name", reason)
	}
	if g.kills[2] != "" {
		t.Errorf("bystander killed: %s", g.kills[2])
	}
	// The first window was evaluated, the message whose window detonated was
	// counted and skipped, the rest of pid 1's were dropped; pid 2 went on.
	if got := v.Messages(1); got != lookAhead+1 {
		t.Errorf("pid 1 evaluated %d messages, want %d", got, lookAhead+1)
	}
	if got := v.Messages(2); got != 3 {
		t.Errorf("pid 2 evaluated %d messages, want 3", got)
	}
}

// sealerBomb is an hmac sealer that panics when it finds the trigger in a
// window, after authenticating the frames ahead of it.
type sealerBomb struct {
	noPrefetchSealer
	trigger uint64
}

func (s sealerBomb) Name() string { return "sealer-bomb" }
func (s sealerBomb) UnsealRun(ms []ipc.Message) (int, *policy.Violation) {
	for i := range ms {
		if ms[i].Arg1 == s.trigger {
			s.Sealer.UnsealRun(ms[:i])
			panic("bomb: sealer bug")
		}
	}
	return s.Sealer.UnsealRun(ms)
}

// TestSealerPanicMidWindowKillsOnlyItsProcess: UnsealRun is policy code, so a
// panic inside it — here after it has stripped part of the window — is one
// kill, attributed to the sealer by name and charged to the window's first
// frame; the stripped prefix is dropped with the dead context, the shard stays
// healthy and the other process's part of the batch is delivered.
func TestSealerPanicMidWindowKillsOnlyItsProcess(t *testing.T) {
	g := &countingGate{}
	kr := policy.NewKeyringSeeded(1)
	v := NewSharded(func() []policy.Policy {
		return []policy.Policy{policy.NewCounter(), sealerBomb{noPrefetchSealer{policy.NewHMAC(nil)}, 0xdead}}
	}, g, 1)
	v.CheckSeq = true
	v.SetKeyring(kr)
	var keys [3]ipc.MacKey
	for pid := int32(1); pid <= 2; pid++ {
		kr.Program(pid)
		keys[pid], _ = kr.Key(pid)
		v.ProcessStarted(pid)
	}
	var seq [3]uint64
	var batch []ipc.Message
	add := func(pid int32, arg uint64) {
		seq[pid]++
		m := ipc.Message{Op: ipc.OpCounterInc, PID: pid, Arg1: arg, Seq: seq[pid]}
		m.Mac = ipc.MacSeal(keys[pid], m, m.Seq)
		batch = append(batch, m)
	}
	for i := 0; i < 10; i++ {
		add(2, 1)
	}
	for i := 0; i < lookAhead+20; i++ { // the bomb sits mid-way through pid 1's second window
		arg := uint64(1)
		if i == lookAhead+10 {
			arg = 0xdead
		}
		add(1, arg)
	}
	for i := 0; i < 10; i++ {
		add(2, 1)
	}
	v.DeliverBatch(batch)

	if got := v.PoisonedShards(); got != 0 {
		t.Fatalf("PoisonedShards = %d, want 0", got)
	}
	if len(g.kills) != 1 || g.kills[0] != 1 {
		t.Fatalf("kill actions for pids %v, want exactly one, for pid 1", g.kills)
	}
	viols := v.Violations(1)
	if len(viols) != 1 || viols[0].Policy != "sealer-bomb" || !strings.Contains(viols[0].Reason, `"sealer-bomb" panicked`) {
		t.Fatalf("pid 1 violations = %v, want one panic attributed to the sealer", viols)
	}
	// pid 1: the first window evaluated, the second's first frame counted and
	// charged, everything after it dropped. pid 2: untouched on either side.
	if got := v.Messages(1); got != lookAhead+1 {
		t.Errorf("pid 1 evaluated %d messages, want %d", got, lookAhead+1)
	}
	if st, _ := v.ProcStats(1); st.Dropped != 19 {
		t.Errorf("pid 1 dropped %d messages, want the 19 behind the window's first frame", st.Dropped)
	}
	if got, viols := v.Messages(2), v.Violations(2); got != 20 || len(viols) != 0 {
		t.Errorf("pid 2 evaluated %d messages with violations %v, want 20 and none", got, viols)
	}
	if c, ok := v.Policy(1, "counter").(*policy.Counter); !ok || c.Count(1) != lookAhead {
		t.Errorf("pid 1's counter holds %d, want the first window's %d", c.Count(1), lookAhead)
	}
}
