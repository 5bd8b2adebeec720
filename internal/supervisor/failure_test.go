package supervisor

import (
	"context"
	"strings"
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
// more. The shard survives, Health stays clean, and later launches are
// admitted and validated normally (the engine contains the blast radius to
// one process per detonation, not one shard per bug).
func TestPolicyPanicKillsProcessNotSystem(t *testing.T) {
	sys := New(Config{
		Policies:        func() []policy.Policy { return []policy.Policy{panicOnCheck{}} },
		KillOnViolation: true,
		Shards:          1, // every pid routes to the same shard
		Epoch:           200 * time.Millisecond,
	})

	if h := sys.Health(); h.Degraded() || h.PoisonedShards != 0 {
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
		t.Errorf("kill reason %q blames the shard for a policy bug", out.KillReason)
	}

	h := sys.Health()
	if h.PoisonedShards != 0 {
		t.Errorf("PoisonedShards = %d, want 0 (panic contained per policy)", h.PoisonedShards)
	}
	if h.Degraded() {
		t.Error("Health.Degraded() true after a contained policy panic")
	}

	// A process launched afterwards is admitted and validated on the same,
	// still-healthy shard. It trips the same policy bug — and is killed with
	// the same per-process attribution, never as collateral shard poison.
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
		t.Errorf("second launch blamed on shard poison: %q", out2.KillReason)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
