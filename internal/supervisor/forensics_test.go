package supervisor

import (
	"context"
	"testing"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/kernel"
	"herqules/internal/telemetry"
)

// TestForensicsRetainedPastTeardown is the retention contract: a monitored
// program killed for a CFI violation leaves a postmortem that survives its
// verifier context's teardown — System.Forensics answers "why was this PID
// killed?" after the process is fully gone. The victim makes a gated system
// call before it violates: the kill can land before the program reaches the
// attacker's gated payload, and a report of no system calls is then correct.
func TestForensicsRetainedPastTeardown(t *testing.T) {
	sys := New(Config{KillOnViolation: true, FlightRecorder: 64})
	defer shutdown(t, sys)

	p, err := sys.Launch(instrumentHQ(t, victimWithPayload(t, true, true, true)), LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Killed {
		t.Fatalf("violating program was not killed: %+v", out)
	}

	// The verifier context is torn down by now; only the retained copy can
	// answer.
	if _, live := sys.Verifier().Forensics(p.PID()); live {
		t.Log("verifier context still live; retention path not exercised")
	}
	rep, ok := sys.Forensics(p.PID())
	if !ok {
		t.Fatalf("no retained postmortem for killed pid %d", p.PID())
	}
	if rep.PID != p.PID() {
		t.Errorf("report pid %d, want %d", rep.PID, p.PID())
	}
	if rep.Policy != "cfi" {
		t.Errorf("report attributes %q, want cfi", rep.Policy)
	}
	if rep.KillReason == "" || len(rep.Window) == 0 {
		t.Errorf("hollow report: reason %q, window %d", rep.KillReason, len(rep.Window))
	}
	if rep.State != stateKilled {
		t.Errorf("report state %q, want %q", rep.State, stateKilled)
	}
	if rep.StartedUnixNanos == 0 || rep.FinishedUnixNanos == 0 {
		t.Errorf("lifecycle timestamps missing: started=%d finished=%d",
			rep.StartedUnixNanos, rep.FinishedUnixNanos)
	}
	if rep.Syscalls == 0 {
		t.Errorf("kernel context missing: %d syscalls recorded", rep.Syscalls)
	}

	all := sys.AllForensics()
	if len(all) != 1 || all[0].PID != p.PID() {
		t.Errorf("AllForensics = %+v, want exactly the killed pid", all)
	}

	// A clean program must not grow the postmortem index.
	cp, err := sys.Launch(instrumentHQ(t, victim(t, false)), LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cout, err := cp.Wait(); err != nil || cout.Killed {
		t.Fatalf("clean run: out=%+v err=%v", cout, err)
	}
	if _, ok := sys.Forensics(cp.PID()); ok {
		t.Error("clean exit produced a forensic report")
	}
	if got := len(sys.AllForensics()); got != 1 {
		t.Errorf("AllForensics has %d reports after one kill, one clean exit", got)
	}
}

// TestStatsViolationsByPolicy: the aggregated per-policy counters surface in
// Stats (and from there the /metrics exposition) after teardown.
func TestStatsViolationsByPolicy(t *testing.T) {
	sys := New(Config{KillOnViolation: true, FlightRecorder: 64})
	defer shutdown(t, sys)

	p, err := sys.Launch(instrumentHQ(t, victim(t, true)), LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := p.Wait(); err != nil || !out.Killed {
		t.Fatalf("out=%+v err=%v", out, err)
	}

	st := sys.Stats()
	if st.ViolationsByPolicy["cfi"] == 0 {
		t.Errorf("Stats.ViolationsByPolicy = %v, want cfi > 0", st.ViolationsByPolicy)
	}
}

// TestForensicsDirectKernelRegistration covers the non-launched path the obs
// smoke uses: a context registered straight against the kernel, killed by a
// replayed violation, is served live by System.Forensics (no procRecord
// exists to retain it).
func TestForensicsDirectKernelRegistration(t *testing.T) {
	sys := New(Config{KillOnViolation: true, FlightRecorder: 64})
	defer shutdown(t, sys)

	pid := sys.Kernel().Register()
	v := sys.Verifier()
	v.Deliver(ipc.Message{Op: ipc.OpPointerDefine, PID: pid, Arg1: 0x40, Arg2: 0x1000, Seq: 1})
	v.Deliver(ipc.Message{Op: ipc.OpPointerCheck, PID: pid, Arg1: 0x40, Arg2: 0xbad, Seq: 2})

	rep, ok := sys.Forensics(pid)
	if !ok {
		t.Fatalf("no live report for directly-registered pid %d", pid)
	}
	if rep.Policy != "cfi" || rep.KillReason == "" {
		t.Errorf("report: policy %q reason %q", rep.Policy, rep.KillReason)
	}
}

// gateTestMessages delivers a passing define/check stream of n pairs for pid
// and returns the number of messages delivered.
func gateTestMessages(sys *System, pid int32, n int) int {
	v := sys.Verifier()
	for i := 0; i < n; i++ {
		slot, ptr := uint64(0x40+8*i), uint64(0x1000+0x100*i)
		v.Deliver(ipc.Message{Op: ipc.OpPointerDefine, PID: pid, Arg1: slot, Arg2: ptr, Seq: uint64(2*i + 1)})
		v.Deliver(ipc.Message{Op: ipc.OpPointerCheck, PID: pid, Arg1: slot, Arg2: ptr, Seq: uint64(2*i + 2)})
	}
	return 2 * n
}

// TestEpochKillWindowEndsInGateTimeline: the flight window is the one
// timeline of a gate kill. A gated call with no System-Call message stalls
// out its epoch, and the kernel stamps the stall and the expiry before it
// reports the kill, so the frozen window ends gate-stall → epoch-expired →
// killed, after the process's last messages. Under the log-only degraded
// policy the same expiry is counted and let through, and nothing freezes.
func TestEpochKillWindowEndsInGateTimeline(t *testing.T) {
	const epoch = 20 * time.Millisecond
	const syscallNo = 7

	t.Run("fail-closed", func(t *testing.T) {
		sys := New(Config{FlightRecorder: 64, Epoch: epoch})
		defer shutdown(t, sys)

		pid := sys.Kernel().Register()
		msgs := gateTestMessages(sys, pid, 3)
		if err := sys.Kernel().SyscallEnter(pid, syscallNo); err == nil {
			t.Fatal("SyscallEnter without a System-Call message returned nil, want an epoch kill")
		}
		if _, reason := sys.Kernel().Killed(pid); reason != kernel.ReasonEpochExpired {
			t.Fatalf("kill reason %q, want %q", reason, kernel.ReasonEpochExpired)
		}
		rep, ok := sys.Forensics(pid)
		if !ok {
			t.Fatalf("no report frozen for pid %d", pid)
		}
		w := rep.Window
		if len(w) < msgs+3 {
			t.Fatalf("window holds %d records, want at least %d messages + 3 gate records: %+v", len(w), msgs, w)
		}
		tail := w[len(w)-3:]
		if tail[0].Code != "gate-stall" || tail[1].Code != "epoch-expired" || tail[2].Code != "killed" {
			t.Fatalf("window ends %s, %s, %s; want gate-stall, epoch-expired, killed\n%+v",
				tail[0].Code, tail[1].Code, tail[2].Code, w)
		}
		if tail[0].Value < uint64(epoch) {
			t.Errorf("gate-stall value %d ns, want >= the %v epoch", tail[0].Value, epoch)
		}
		if tail[1].Value != syscallNo {
			t.Errorf("epoch-expired value %d, want syscall %d", tail[1].Value, syscallNo)
		}
		for i, e := range w[len(w)-3-msgs : len(w)-3] {
			if e.Kind != "message" || e.Code != "ok" || e.Seq != uint64(i+1) {
				t.Errorf("window record %d before the gate timeline = %+v, want message seq %d ok", i, e, i+1)
			}
		}
	})

	t.Run("log-only", func(t *testing.T) {
		m := telemetry.New(0)
		sys := New(Config{FlightRecorder: 64, Epoch: epoch, Degraded: kernel.DegradedLogOnly, Metrics: m})
		defer shutdown(t, sys)

		pid := sys.Kernel().Register()
		gateTestMessages(sys, pid, 3)
		if err := sys.Kernel().SyscallEnter(pid, syscallNo); err != nil {
			t.Fatalf("SyscallEnter under DegradedLogOnly = %v, want nil", err)
		}
		if ks, _ := sys.Kernel().Stats(pid); ks.DegradedAllows != 1 {
			t.Errorf("kernel DegradedAllows = %d, want 1", ks.DegradedAllows)
		}
		if got := m.Counter("kernel.degraded_allows").Value(); got != 1 {
			t.Errorf("kernel.degraded_allows = %d, want 1", got)
		}
		if rep, ok := sys.Forensics(pid); ok {
			t.Errorf("a bypassed epoch froze a report: %+v", rep)
		}
	})
}

func shutdown(t *testing.T, sys *System) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}
