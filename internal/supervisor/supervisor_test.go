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
	"herqules/internal/telemetry"
	"herqules/internal/vm"
)

// victim builds a program whose function pointer is corrupted through an
// integer alias before dispatch; the attacker carries a *gated* payload
// (exit 99) so bounded asynchronous validation has a side effect to block.
func victim(t *testing.T, corrupt bool) *mir.Module {
	return victimWithPayload(t, corrupt, true)
}

// victimWithPayload makes the attacker's gated payload optional: without it
// the hijacked call only sets the ungated exploit marker, like RIPE shellcode.
func victimWithPayload(t *testing.T, corrupt, gatedPayload bool) *mir.Module {
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
// concurrently under ONE kernel + ONE sharded verifier, each over its own
// AppendWrite channel multiplexed into the shared pump. Asserted: per-PID
// outcome isolation, exactly one kernel kill per violator, and a clean
// Shutdown that leaks no pump goroutines. Run under -race by `make check`.
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
	if sys.Kernel().NumProcs() != 0 {
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
	if sys.Kernel().NumProcs() != 0 {
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
