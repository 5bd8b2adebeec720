package supervisor

import (
	"context"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/policy"
)

// panicOnCheck is a deliberately buggy policy: it panics on the victim
// program's pointer-check message, modelling any defect in verifier-side
// policy code.
type panicOnCheck struct{ policy.Hooks }

func (panicOnCheck) Name() string { return "panic-on-check" }
func (panicOnCheck) Handle(m ipc.Message) *policy.Violation {
	if m.Op == ipc.OpPointerCheck {
		panic("injected policy bug")
	}
	return nil
}
func (p panicOnCheck) HandleRun(ms []ipc.Message) (int, *policy.Violation) {
	for i := range ms {
		p.Handle(ms[i])
	}
	return len(ms), nil
}
func (panicOnCheck) Clone() policy.Policy { return panicOnCheck{} }
func (panicOnCheck) Entries() int         { return 0 }

// TestPolicyPanicKillsProcessNotSystem is the end-to-end containment test: a
// policy panic while a monitored program runs must kill that program
// fail-closed with the panicking policy named in the reason — and nothing
// more. Nothing is poisoned, Health stays clean, and later launches are
// admitted and validated normally (the engine contains the blast radius to
// one process per detonation).
func TestPolicyPanicKillsProcessNotSystem(t *testing.T) {
	sys := New(Config{
		Policies:        func() []policy.Policy { return []policy.Policy{panicOnCheck{}} },
		KillOnViolation: true,
		Epoch:           200 * time.Millisecond,
	})

	if h := sys.Health(); h.Degraded() || h.Poisoned != 0 {
		t.Fatalf("fresh system reports degraded: %+v", h)
	}

	ins := instrumentHQ(t, victim(t, false))
	p, err := sys.Launch(ins, LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Killed {
		t.Fatalf("process with panicking policy not killed: %+v", out)
	}
	if !strings.Contains(out.KillReason, "panic-on-check") ||
		!strings.Contains(out.KillReason, "panicked") {
		t.Errorf("kill reason %q does not attribute the panicking policy", out.KillReason)
	}
	if strings.Contains(out.KillReason, "poisoned") {
		t.Errorf("kill reason %q blames a poison for a policy bug", out.KillReason)
	}

	h := sys.Health()
	if h.Poisoned != 0 {
		t.Errorf("Poisoned = %d, want 0 (panic contained per policy)", h.Poisoned)
	}
	if h.Degraded() {
		t.Error("Health.Degraded() true after a contained policy panic")
	}

	// A process launched afterwards is admitted and validated. It trips the
	// same policy bug — and is killed with the same per-process attribution,
	// never as a poison.
	p2, err := sys.Launch(ins, LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out2, err := p2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Killed {
		t.Fatalf("second launch not killed by the same policy bug: %+v", out2)
	}
	if !strings.Contains(out2.KillReason, "panic-on-check") {
		t.Errorf("second kill reason %q lacks policy attribution", out2.KillReason)
	}
	if strings.Contains(out2.KillReason, "poisoned") {
		t.Errorf("second launch blamed on a poison: %q", out2.KillReason)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// nameBomb consumes pointer checks. Armed for the first process it starts in,
// it answers that process's first check with an unnamed violation, and from
// then on its Name panics: the engine's attribution call panics, and so does
// the policy-panic containment's own, so the panic escapes into the delivery
// path — the bug class that poisons the process being delivered for.
type nameBomb struct {
	policy.Hooks
	armed *atomic.Int32 // the pid the bomb is armed for, 0 until the first start
	pid   int32
	lit   bool
}

func (p *nameBomb) ProcessStarted(pid int32) {
	p.pid = pid
	p.armed.CompareAndSwap(0, pid)
}
func (p *nameBomb) Name() string {
	if p.lit {
		panic("injected delivery-path bug")
	}
	return "name-bomb"
}
func (p *nameBomb) Ops() []ipc.Op { return []ipc.Op{ipc.OpPointerCheck} }
func (p *nameBomb) HandleRun(ms []ipc.Message) (int, *policy.Violation) {
	if p.armed.Load() == p.pid {
		p.lit = true
		return 0, &policy.Violation{PID: ms[0].PID, Op: ms[0].Op, Reason: "armed"}
	}
	return len(ms), nil
}
func (p *nameBomb) Handle(m ipc.Message) *policy.Violation {
	_, v := p.HandleRun([]ipc.Message{m})
	return v
}
func (p *nameBomb) Clone() policy.Policy { c := *p; return &c }
func (p *nameBomb) Entries() int         { return 0 }

// TestDeliveryPanicKillsOnlyItsProcess: a delivery-path panic while one
// launched program runs poisons that program's verifier context alone. It is
// killed, once, with the panic in its reason; Health counts one poison; and
// every program launched afterwards, whatever its PID, runs to completion
// with its gated system calls passing. Both emit paths are contained: a
// channel's drain, and inline delivery on the program's own goroutine.
func TestDeliveryPanicKillsOnlyItsProcess(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts LaunchOptions
	}{
		{"drain", LaunchOptions{}},
		{"inline", LaunchOptions{Inline: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var armed atomic.Int32
			sys := New(Config{
				Policies:        func() []policy.Policy { return []policy.Policy{&nameBomb{armed: &armed}} },
				KillOnViolation: true,
				Epoch:           200 * time.Millisecond,
			})
			defer shutdown(t, sys)
			ins := instrumentHQ(t, victim(t, false))

			p, err := sys.Launch(ins, mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			out, err := p.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if !out.Killed || !strings.Contains(out.KillReason, "injected delivery-path bug") {
				t.Fatalf("poisoned process: killed=%v reason %q, want killed for the delivery panic", out.Killed, out.KillReason)
			}
			if h := sys.Health(); h.Poisoned != 1 || !h.Degraded() {
				t.Fatalf("Health = %+v, want one poisoned process", h)
			}

			for i := 0; i < 4; i++ {
				p, err := sys.Launch(ins, mode.opts)
				if err != nil {
					t.Fatal(err)
				}
				out, err := p.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if out.Killed || out.Err != nil || out.ExitCode != 0 || !slices.Equal(out.Output, []uint64{42}) {
					t.Errorf("pid %d launched after the poison: killed=%v (%q) err=%v exit=%d output=%v, want a clean run",
						out.PID, out.Killed, out.KillReason, out.Err, out.ExitCode, out.Output)
				}
			}
			if st := sys.Stats(); st.Killed != 1 {
				t.Errorf("Stats.Killed = %d, want 1: the poison killed only its process", st.Killed)
			}
		})
	}
}
