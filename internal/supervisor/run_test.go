package supervisor

import (
	"testing"

	"herqules/internal/compiler"
	"herqules/internal/ipc"
	"herqules/internal/policy"
)

// The one-shot Run path: a throwaway System hosting exactly one process, in
// both delivery modes.

func TestDeterministicCleanRun(t *testing.T) {
	ins := instrumentHQ(t, victimWithPayload(t, false, false, false))
	out, err := Run(Config{KillOnViolation: true}, ins, LaunchOptions{Inline: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Killed || out.Err != nil {
		t.Fatalf("clean run: killed=%t err=%v", out.Killed, out.Err)
	}
	if len(out.Output) != 1 || out.Output[0] != 42 {
		t.Errorf("output = %v", out.Output)
	}
	if out.MessagesProcessed == 0 {
		t.Error("no messages reached the verifier")
	}
	if out.Entries < 0 || out.MaxEntries < 1 {
		t.Errorf("entries = %d/%d", out.Entries, out.MaxEntries)
	}
}

func TestDeterministicAttackKilledBeforeSideEffects(t *testing.T) {
	ins := instrumentHQ(t, victimWithPayload(t, true, false, false))
	out, err := Run(Config{KillOnViolation: true}, ins, LaunchOptions{Inline: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Killed {
		t.Fatal("attack not caught")
	}
	if out.ExploitMarker {
		t.Error("payload's system call executed despite the kill")
	}
	if len(out.Output) != 0 {
		t.Error("output produced after the violation")
	}
}

func TestConcurrentModeOverEveryTransport(t *testing.T) {
	mk := map[string]func() *ipc.Channel{
		"shm":  func() *ipc.Channel { return ipc.NewSharedRing(1 << 12) },
		"mq":   ipc.NewMessageQueue,
		"pipe": ipc.NewPipe,
	}
	for name, f := range mk {
		t.Run(name, func(t *testing.T) {
			ins := instrumentHQ(t, victimWithPayload(t, true, true, false))
			out, err := Run(Config{KillOnViolation: true}, ins, LaunchOptions{Channel: f()})
			if err != nil {
				t.Fatal(err)
			}
			if !out.Killed {
				t.Error("attack survived concurrent verification")
			}
			// Bounded asynchrony's guarantee is about *gated* side
			// effects: the payload's exit syscall must never commit.
			// (Its ungated marker — the RIPE execve exemption — can
			// race the verifier in concurrent mode, by design.)
			if out.ExitCode == 99 {
				t.Error("payload's gated syscall committed")
			}
		})
	}
}

func TestMonitoringModeRecordsWithoutKilling(t *testing.T) {
	ins := instrumentHQ(t, victimWithPayload(t, true, false, false))
	out, err := Run(Config{KillOnViolation: false}, ins, LaunchOptions{Inline: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Killed {
		t.Error("killed in monitoring mode")
	}
	if len(out.PolicyViolations) == 0 {
		t.Error("violation not recorded")
	}
	// In monitoring mode the hijack actually runs (bounded asynchrony
	// does not roll back the transfer; it only gates side effects when
	// killing is enabled).
	if !out.ExploitMarker {
		t.Error("hijacked call suppressed in monitoring mode")
	}
}

func TestBaselineNotGated(t *testing.T) {
	mod := victimWithPayload(t, false, false, false)
	base, err := compiler.Instrument(mod, compiler.Baseline, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(Config{KillOnViolation: true}, base, LaunchOptions{Inline: true})
	if err != nil {
		t.Fatal(err)
	}
	// Without HQ there are no sync messages; if the kernel gated the
	// baseline, its syscalls would hit the epoch and kill it.
	if out.Killed || out.Err != nil {
		t.Errorf("baseline gated: killed=%t err=%v", out.Killed, out.Err)
	}
}

func TestCustomPolicySet(t *testing.T) {
	ins := instrumentHQ(t, victimWithPayload(t, false, false, false))
	counter := policy.NewCounter()
	out, err := Run(Config{
		Policies: func() []policy.Policy { return []policy.Policy{counter, policy.NewCFI()} },
	}, ins, LaunchOptions{Inline: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Err != nil || out.Killed {
		t.Fatalf("custom policies broke the run: %v %t", out.Err, out.Killed)
	}
}

func TestRunErrorsOnMissingEntry(t *testing.T) {
	ins := instrumentHQ(t, victimWithPayload(t, false, false, false))
	out, err := Run(Config{}, ins, LaunchOptions{Entry: "nonexistent", Inline: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Err == nil {
		t.Error("missing entry did not error")
	}
}
