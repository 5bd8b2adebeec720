package supervisor

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"herqules/internal/compiler"
	"herqules/internal/ipc"
	"herqules/internal/mir"
	"herqules/internal/policy"
	"herqules/internal/telemetry"
	"herqules/internal/vm"
)

// victim builds a program whose function pointer is corrupted through an
// integer alias before dispatch; the attacker carries a *gated* payload
// (exit 99) so bounded asynchronous validation has a side effect to block.
func victim(t *testing.T, corrupt bool) *mir.Module {
	return victimWithPayload(t, corrupt, true, false)
}

// victimWithPayload makes the attacker's gated payload optional: without it
// the hijacked call only sets the ungated exploit marker, like RIPE shellcode.
// With gateFirst, main makes a gated system call before the corruption, so
// the process has entered the kernel gate whenever the verifier's kill lands.
func victimWithPayload(t *testing.T, corrupt, gatedPayload, gateFirst bool) *mir.Module {
	t.Helper()
	mod := mir.NewModule("sup-victim")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.I64, mir.I64)

	b.Func("attacker", sig, "x") // function #0
	b.Syscall(vm.SysMarkExploit)
	if gatedPayload {
		b.Syscall(vm.SysExit, mir.ConstInt(99))
	}
	b.Ret(mir.ConstInt(0))

	legit := b.Func("legit", sig, "x")
	b.Ret(b.Add(legit.Params[0], mir.ConstInt(1)))

	b.Func("main", mir.FuncType(mir.I64))
	if gateFirst {
		b.Syscall(vm.SysSend)
	}
	slot := b.Cast(b.Malloc(mir.ConstInt(16)), mir.Ptr(mir.Ptr(sig)))
	b.Store(b.FuncAddr(legit), slot)
	if corrupt {
		b.Store(mir.ConstInt(vm.StaticFuncAddr(0)), b.Cast(slot, mir.Ptr(mir.I64)))
	}
	fp := b.Load(slot)
	r := b.ICall(fp, sig, mir.ConstInt(41))
	b.Syscall(vm.SysWrite, r)
	b.Syscall(vm.SysExit, mir.ConstInt(0))
	b.Ret(mir.ConstInt(0))
	mod.Finalize()
	if err := mir.Validate(mod); err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestLastCheckBeforeReturnIsVerified: under cfi,hmac on the default
// SharedRing the sealed sender publishes eight messages at a time, so a
// program's last messages can still be unpublished when main returns. Here
// the last one is a failing pointer check with no system call after it;
// closing the channel must publish the open group, so the check is verified
// and the process killed for it, with telemetry on as without.
func TestLastCheckBeforeReturnIsVerified(t *testing.T) {
	factory, err := policy.SetFactory("cfi", "hmac")
	if err != nil {
		t.Fatal(err)
	}
	mod := mir.NewModule("last-check")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.I64, mir.I64)
	legit := b.Func("legit", sig, "x")
	b.Ret(legit.Params[0])
	b.Func("main", mir.FuncType(mir.I64))
	slot := b.Cast(b.Malloc(mir.ConstInt(16)), mir.Ptr(mir.Ptr(sig)))
	b.Store(b.FuncAddr(legit), slot)
	b.Store(mir.ConstInt(0xbad0), b.Cast(slot, mir.Ptr(mir.I64)))
	fp := b.Load(slot) // the failing check, and the program's last message
	b.Ret(b.Cast(fp, mir.I64))
	mod.Finalize()
	if err := mir.Validate(mod); err != nil {
		t.Fatal(err)
	}
	ins := instrumentHQ(t, mod)

	for _, m := range []*telemetry.Metrics{nil, telemetry.New(1)} {
		sys := New(Config{Policies: factory, KillOnViolation: true, Metrics: m})
		p, err := sys.Launch(ins, LaunchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.Wait()
		shutdown(t, sys)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Killed || out.Stats.Syscalls != 0 {
			t.Fatalf("metrics %t: killed %t after %d system calls, want a kill with none: %+v", m != nil, out.Killed, out.Stats.Syscalls, out.Result)
		}
		if len(out.PolicyViolations) != 1 || out.PolicyViolations[0].Policy != "cfi" {
			t.Fatalf("metrics %t: violations %v, want one, attributed to cfi", m != nil, out.PolicyViolations)
		}
	}
}

func instrumentHQ(t *testing.T, mod *mir.Module) *compiler.Instrumented {
	t.Helper()
	ins, err := compiler.Instrument(mod, compiler.HQSfeStk, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

// waitGoroutines polls until the goroutine count settles back to at most
// want, failing the test if it never does: a drain goroutine
// leaked by Shutdown keeps the count elevated forever.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d after shutdown\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSystemConcurrentMixedProcesses is the multi-tenant soak the supervisor
// exists for: many monitored programs — clean and violating, mixed — run
// concurrently under ONE kernel + ONE verifier, each over its own
// AppendWrite channel drained by a goroutine of its own. Asserted: per-PID
// outcome isolation, exactly one kernel kill per violator, and a clean
// Shutdown that leaks no drain goroutines. Run under -race by `make check`.
func TestSystemConcurrentMixedProcesses(t *testing.T) {
	const procs = 10 // >= 8 per the acceptance bar; even index = clean
	baseline := runtime.NumGoroutine()

	m := telemetry.New(0)
	sys := New(Config{KillOnViolation: true, Metrics: m})

	cleanIns := instrumentHQ(t, victim(t, false))
	attackIns := instrumentHQ(t, victim(t, true))

	handles := make([]*Proc, procs)
	for i := 0; i < procs; i++ {
		ins := cleanIns
		if i%2 == 1 {
			ins = attackIns
		}
		p, err := sys.Launch(ins, LaunchOptions{})
		if err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
		handles[i] = p
	}

	violators := 0
	seen := make(map[int32]bool)
	for i, p := range handles {
		out, err := p.Wait()
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if out.PID != p.PID() || seen[out.PID] {
			t.Fatalf("proc %d: pid %d duplicated or mismatched", i, out.PID)
		}
		seen[out.PID] = true
		if i%2 == 1 {
			violators++
			if !out.Killed {
				t.Errorf("violator %d (pid %d) survived", i, out.PID)
			}
			if out.ExitCode == 99 {
				t.Errorf("violator %d: gated payload syscall committed", i)
			}
			if len(out.PolicyViolations) == 0 {
				t.Errorf("violator %d: no violation recorded", i)
			}
		} else {
			if out.Killed {
				t.Errorf("clean proc %d (pid %d) killed: %s — cross-process contamination",
					i, out.PID, out.KillReason)
			}
			if len(out.PolicyViolations) != 0 {
				t.Errorf("clean proc %d: violations leaked in: %v", i, out.PolicyViolations)
			}
			if len(out.Output) != 1 || out.Output[0] != 42 {
				t.Errorf("clean proc %d: output = %v, want [42]", i, out.Output)
			}
		}
	}

	if err := sys.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Exactly one kernel kill per violator: the verifier marks a context
	// dead on its first fatal violation, so in-flight messages behind the
	// violation drop instead of re-killing.
	snap := m.Snapshot()
	if got := snap.Counters["kernel.kills"].Total; got != uint64(violators) {
		t.Errorf("kernel.kills = %d, want exactly %d (one per violator)", got, violators)
	}

	st := sys.Stats()
	if st.Launched != procs || st.Finished != procs || st.Active != 0 {
		t.Errorf("stats lifecycle = launched %d finished %d active %d, want %d/%d/0",
			st.Launched, st.Finished, st.Active, procs, procs)
	}
	if st.Killed != uint64(violators) {
		t.Errorf("stats killed = %d, want %d", st.Killed, violators)
	}
	if st.MessagesVerified == 0 {
		t.Error("no messages verified")
	}
	if len(sys.Kernel().Pids()) != 0 {
		t.Errorf("kernel process table not empty: %v", sys.Kernel().Pids())
	}

	waitGoroutines(t, baseline)
}

// TestSystemMixedTransports launches processes over different transports —
// the configured default ring, an explicit FPGA channel, and deterministic
// inline delivery — concurrently under one System.
func TestSystemMixedTransports(t *testing.T) {
	sys := New(Config{KillOnViolation: true})
	defer sys.Shutdown(context.Background())
	attackIns := instrumentHQ(t, victim(t, true))

	fpgaCh, err := NewChannel(ipc.KindFPGA)
	if err != nil {
		t.Fatal(err)
	}
	launches := []LaunchOptions{
		{},                // default ring transport
		{Channel: fpgaCh}, // explicit FPGA channel, PID register programmed
		{Inline: true},    // deterministic inline delivery
	}
	procs := make([]*Proc, len(launches))
	for i, lo := range launches {
		p, err := sys.Launch(attackIns, lo)
		if err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
		procs[i] = p
	}
	for i, p := range procs {
		out, err := p.Wait()
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if !out.Killed {
			t.Errorf("launch %d: attack not caught", i)
		}
		if out.ExitCode == 99 {
			t.Errorf("launch %d: payload committed", i)
		}
	}
}

// TestSystemShutdownRefusesLaunch verifies the admission gate.
func TestSystemShutdownRefusesLaunch(t *testing.T) {
	sys := New(Config{})
	if err := sys.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ins := instrumentHQ(t, victim(t, false))
	if _, err := sys.Launch(ins, LaunchOptions{}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("launch after shutdown: err = %v, want ErrShutdown", err)
	}
	// Idempotent: a second Shutdown returns cleanly.
	if err := sys.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestLaunchRefusedClosesChannel: Launch owns the channel it is handed on
// every path, a refusal by a shut-down System included.
func TestLaunchRefusedClosesChannel(t *testing.T) {
	sys := New(Config{})
	if err := sys.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ring := ipc.NewSharedRing(64)
	if _, err := sys.Launch(instrumentHQ(t, victim(t, false)), LaunchOptions{Channel: ring}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("launch after shutdown: err = %v, want ErrShutdown", err)
	}
	if err := ring.Sender.Send(ipc.Message{Op: ipc.OpPointerDefine, Arg1: 0x40, Arg2: 0x1000}); err == nil {
		t.Error("refused Launch left the caller's channel open")
	}
}

// An inline launch has no use for a channel: Launch refuses the pair and,
// owning the channel on every path, closes it.
func TestInlineLaunchRefusesAndClosesChannel(t *testing.T) {
	sys := New(Config{})
	defer sys.Shutdown(context.Background())
	ch := ipc.NewPipe()
	if _, err := sys.Launch(instrumentHQ(t, victim(t, false)), LaunchOptions{Inline: true, Channel: ch}); err == nil {
		t.Fatal("inline launch with a channel accepted")
	}
	if err := ch.Sender.Send(ipc.Message{Op: ipc.OpCounterInc}); !errors.Is(err, ipc.ErrClosed) {
		t.Errorf("send on the refused channel: err = %v, want ipc.ErrClosed", err)
	}
	if h := sys.Health(); h.ActiveProcs != 0 {
		t.Errorf("refused launch left %d active processes", h.ActiveProcs)
	}
}

// failingSender fails its k-th Send, and every one after, with err.
type failingSender struct {
	ipc.Sender
	k, sends int
	err      error
}

func (s *failingSender) Send(m ipc.Message) error {
	s.sends++
	if s.sends >= s.k {
		return s.err
	}
	return s.Sender.Send(m)
}

// A failed send is terminal at once: the program ends with the error, the
// drain closes and the process leaves the system.
func TestEmitFailureEndsProgram(t *testing.T) {
	const k = 3
	sys := New(Config{})
	defer sys.Shutdown(context.Background())
	ring := ipc.NewSharedRing(64)
	broken := errors.New("transport gone")
	fs := &failingSender{Sender: ring.Sender, k: k, err: broken}
	p, err := sys.Launch(instrumentHQ(t, victim(t, false)),
		LaunchOptions{Channel: &ipc.Channel{Sender: fs, Receiver: ring.Receiver, Props: ring.Props}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if fs.sends != k {
		t.Errorf("Send attempted %d times, want exactly %d", fs.sends, k)
	}
	if !errors.Is(out.Err, broken) {
		t.Errorf("Outcome.Err = %v, want it to wrap %v", out.Err, broken)
	}
	select {
	case <-p.drained:
	default:
		t.Error("the process's drain is still open after Wait")
	}
	if h := sys.Health(); h.ActiveProcs != 0 || h.PumpSources != 0 {
		t.Errorf("after the failed run: %d active processes, %d pump sources; want 0, 0", h.ActiveProcs, h.PumpSources)
	}
}

// TestLaunchedAndAdmittedShareOneLifecycle: a launched VM and a process
// admitted over a ring the test feeds itself are finalized the same way —
// both rows frozen as killed with a retained postmortem, both counted — and
// Close neither finalizes a launched process without its outcome nor
// returns before an admitted one is finalized.
func TestLaunchedAndAdmittedShareOneLifecycle(t *testing.T) {
	sys := New(Config{KillOnViolation: true, FlightRecorder: 64})

	launched, err := sys.Launch(instrumentHQ(t, victim(t, true)), LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	launched.Close() // waits for the run; the run finalizes
	out, err := launched.Wait()
	if err != nil || out == nil {
		t.Fatalf("launched process finalized without its outcome: out=%v err=%v", out, err)
	}
	if !out.Killed {
		t.Errorf("launched cfi violator not killed: %+v", out.Result)
	}

	ring := ipc.NewSharedRing(64)
	admitted, err := sys.Admit(ring.Receiver)
	if err != nil {
		t.Fatal(err)
	}
	pid := admitted.PID()
	ring.Sender.Send(ipc.Message{Op: ipc.OpPointerDefine, PID: pid, Arg1: 0x40, Arg2: 0x1000})
	ring.Sender.Send(ipc.Message{Op: ipc.OpPointerCheck, PID: pid, Arg1: 0x40, Arg2: 0xbad})
	ring.Sender.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			admitted.Close()
			select {
			case <-admitted.Done():
			default:
				t.Error("Close returned before the admitted process was finalized")
			}
		}()
	}
	wg.Wait()

	rows := make(map[int32]ProcStats)
	for _, r := range sys.ProcStats() {
		rows[r.PID] = r
	}
	for _, p := range []*Proc{launched, admitted} {
		if r := rows[p.PID()]; r.State != stateKilled || r.FinishedUnixNanos == 0 {
			t.Errorf("pid %d: row %+v, want frozen as %q", p.PID(), r, stateKilled)
		}
		fr, ok := sys.Forensics(p.PID())
		if !ok || fr.Policy != "cfi" || fr.State != stateKilled {
			t.Errorf("pid %d: forensics ok=%v policy %q state %q, want a retained cfi kill",
				p.PID(), ok, fr.Policy, fr.State)
		}
	}
	st := sys.Stats()
	if st.Killed != 2 || st.Finished != 2 || st.Launched != st.Active+st.Finished {
		t.Errorf("stats launched %d active %d finished %d killed %d, want 2 finished, 2 killed",
			st.Launched, st.Active, st.Finished, st.Killed)
	}

	shutdown(t, sys)
	if _, err := sys.Admit(ipc.NewSharedRing(64).Receiver); !errors.Is(err, ErrShutdown) {
		t.Errorf("admit after shutdown: err = %v, want ErrShutdown", err)
	}
	if got := sys.Stats().Launched; got != st.Launched {
		t.Errorf("refused Admit moved Launched: %d -> %d", st.Launched, got)
	}
}

// TestStatsScrapeRacesDelivery reads the per-PID rows the way /procs and
// /metrics do, while two ring processes stream and one of them is killed by a
// violation part-way: a scraper loops on Stats, which takes no context lock.
// Each PID's Messages never goes down between scrapes; once both have
// finished, each row's Messages + Dropped is what its process sent, and the
// violator's row reads killed. Under the race detector it also catches a
// count read without the lock but written without an atomic.
func TestStatsScrapeRacesDelivery(t *testing.T) {
	const n = 1 << 14
	sys := New(Config{KillOnViolation: true})
	defer shutdown(t, sys)

	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		last := make(map[int32]uint64)
		scrapes := 0
		for {
			select {
			case <-stop:
				scraped <- scrapes
				return
			default:
			}
			for _, r := range sys.Stats().Procs {
				if r.Messages < last[r.PID] {
					t.Errorf("pid %d: Messages went from %d to %d between scrapes", r.PID, last[r.PID], r.Messages)
				}
				last[r.PID] = r.Messages
			}
			scrapes++
		}
	}()

	var procs [2]*Proc
	var sent [2]uint64
	var wg sync.WaitGroup
	for i := range procs {
		ring := ipc.NewSharedRing(256)
		p, err := sys.Admit(ring.Receiver)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
		wg.Add(1)
		go func(i int, pid int32) {
			defer wg.Done()
			send := func(m ipc.Message) {
				m.PID = pid
				if err := ring.Sender.Send(m); err != nil {
					t.Errorf("pid %d: send: %v", pid, err)
				}
				sent[i]++
			}
			for j := 0; j < n; j++ {
				if i == 1 && j == n/2 {
					send(ipc.Message{Op: ipc.OpPointerDefine, Arg1: 0x40, Arg2: 0x1000})
					send(ipc.Message{Op: ipc.OpPointerCheck, Arg1: 0x40, Arg2: 0xbad})
				}
				send(ipc.Message{Op: ipc.OpCounterInc, Arg1: 1})
			}
			ring.Sender.Close()
			p.Close()
		}(i, p.PID())
	}
	wg.Wait()
	close(stop)
	if got := <-scraped; got == 0 {
		t.Error("the scraper never completed a scrape")
	}

	rows := make(map[int32]ProcStats)
	for _, r := range sys.ProcStats() {
		rows[r.PID] = r
	}
	for i, p := range procs {
		r := rows[p.PID()]
		if r.Messages+r.Dropped != sent[i] {
			t.Errorf("pid %d: %d messages + %d dropped, want the %d sent", p.PID(), r.Messages, r.Dropped, sent[i])
		}
		want := []string{stateExited, stateKilled}[i]
		if r.State != want {
			t.Errorf("pid %d: row reads %q, want %q", p.PID(), r.State, want)
		}
	}
	if r := rows[procs[1].PID()]; r.Dropped == 0 || r.Violations != 1 {
		t.Errorf("violator's row %+v: want its tail dropped and one violation", r)
	}
}

// TestSystemShutdownDeadlineKillsStragglers drives Shutdown with an
// already-expired context while a process is still running: the sweep of
// the kernel process table must kill it so the drain stays bounded.
func TestSystemShutdownDeadlineKillsStragglers(t *testing.T) {
	sys := New(Config{KillOnViolation: true})
	// A long-running clean program: plenty of instructions to survive until
	// the shutdown sweep. Build a loop via repeated message traffic.
	mod := mir.NewModule("straggler")
	b := mir.NewBuilder(mod)
	b.Func("main", mir.FuncType(mir.I64))
	for i := 0; i < 2000; i++ {
		p := b.Malloc(mir.ConstInt(16))
		b.Store(mir.ConstInt(7), b.Cast(p, mir.Ptr(mir.I64)))
	}
	b.Syscall(vm.SysExit, mir.ConstInt(0))
	b.Ret(mir.ConstInt(0))
	mod.Finalize()
	if err := mir.Validate(mod); err != nil {
		t.Fatal(err)
	}
	ins := instrumentHQ(t, mod)

	p, err := sys.Launch(ins, LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: Shutdown must sweep immediately
	if err := sys.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("shutdown err = %v, want context.Canceled", err)
	}
	out, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// Either the program finished just before the sweep or it was killed by
	// it; both are valid terminations — what matters is that Wait returned
	// and the process table is empty.
	if out == nil {
		t.Fatal("no outcome after deadline shutdown")
	}
	if len(sys.Kernel().Pids()) != 0 {
		t.Errorf("process table not empty after deadline shutdown: %v", sys.Kernel().Pids())
	}
}

// TestNewChannelUnknownKindError asserts the error carries the numeric kind.
func TestNewChannelUnknownKindError(t *testing.T) {
	_, err := NewChannel(ipc.Kind(97))
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	if !strings.Contains(err.Error(), "97") {
		t.Errorf("error %q does not name the numeric kind", err)
	}
}
