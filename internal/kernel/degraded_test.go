package kernel

import (
	"strings"
	"testing"
	"time"

	"herqules/internal/telemetry"
)

// wedgedListener reports a fixed wedged verdict for every pid.
type wedgedListener struct {
	nopListener
	wedged bool
	detail string
	probes int
}

func (w *wedgedListener) WedgedFor(int32) (bool, string) {
	w.probes++
	return w.wedged, w.detail
}

func TestEpochExpiryCarriesWedgedVerifierReason(t *testing.T) {
	// When the listener attributes a stall to a poisoned verifier context, the
	// epoch-expiry kill must say so: "epoch expired" alone sends an operator
	// hunting a slow channel, while the wedged reason names the real fault.
	w := &wedgedListener{wedged: true, detail: "verifier poisoned: delivery panic: bomb"}
	k := New(w)
	k.Epoch = 15 * time.Millisecond
	pid := k.Register()
	if err := k.SyscallEnter(pid, 1); err == nil {
		t.Fatal("syscall survived a wedged verifier")
	}
	killed, reason := k.Killed(pid)
	if !killed {
		t.Fatal("process not killed at epoch deadline")
	}
	if !strings.HasPrefix(reason, ReasonWedgedVerifier) {
		t.Errorf("reason = %q, want prefix %q", reason, ReasonWedgedVerifier)
	}
	if !strings.Contains(reason, "delivery panic: bomb") {
		t.Errorf("reason = %q, lost the listener's detail", reason)
	}
	if w.probes == 0 {
		t.Error("WedgedFor never probed")
	}
}

func TestEpochExpiryWithoutWedgeKeepsPlainReason(t *testing.T) {
	k := New(&wedgedListener{wedged: false})
	k.Epoch = 15 * time.Millisecond
	pid := k.Register()
	if err := k.SyscallEnter(pid, 1); err == nil {
		t.Fatal("syscall survived with no sync message")
	}
	if _, reason := k.Killed(pid); reason != ReasonEpochExpired {
		t.Errorf("reason = %q, want %q", reason, ReasonEpochExpired)
	}
}

func TestDegradedLogOnlyAllowsExpiredEpochs(t *testing.T) {
	// Log-only degradation (measurement/chaos runs): an expired epoch lets
	// the syscall proceed instead of killing, but every bypass is counted —
	// in telemetry and in the per-process stats — so fail-open is loud.
	m := telemetry.New(1)
	k := NewWithMetrics(nil, m)
	k.Epoch = 15 * time.Millisecond
	k.SetDegradedPolicy(DegradedLogOnly)
	pid := k.Register()
	for i := 0; i < 2; i++ {
		if err := k.SyscallEnter(pid, 1); err != nil {
			t.Fatalf("syscall %d under log-only degradation: %v", i, err)
		}
	}
	if killed, reason := k.Killed(pid); killed {
		t.Fatalf("log-only degradation killed: %q", reason)
	}
	st, _ := k.Stats(pid)
	if st.DegradedAllows != 2 {
		t.Errorf("DegradedAllows = %d, want 2", st.DegradedAllows)
	}
	snap := m.Snapshot()
	if got := snap.Counters["kernel.degraded_allows"].Total; got != 2 {
		t.Errorf("kernel.degraded_allows = %d, want 2", got)
	}
	if got := snap.Counters["kernel.epoch_expiries"].Total; got != 2 {
		t.Errorf("kernel.epoch_expiries = %d, want 2 (bypasses still count as expiries)", got)
	}
	if got := snap.Counters["kernel.kills"].Total; got != 0 {
		t.Errorf("kernel.kills = %d, want 0", got)
	}
}

func TestDegradedLogOnlyStillHonorsExplicitKills(t *testing.T) {
	// Log-only softens only the epoch deadline. A verifier-ordered kill (a
	// real policy violation) still terminates the process.
	k := New(nil)
	k.SetDegradedPolicy(DegradedLogOnly)
	pid := k.Register()
	k.Kill(pid, "pointer value mismatch: corrupt")
	if err := k.SyscallEnter(pid, 1); err == nil {
		t.Error("killed process's syscall proceeded under log-only")
	}
}

func TestWedgedKillCountsInTelemetry(t *testing.T) {
	m := telemetry.New(1)
	k := NewWithMetrics(&wedgedListener{wedged: true, detail: "verifier poisoned"}, m)
	k.Epoch = 15 * time.Millisecond
	pid := k.Register()
	if err := k.SyscallEnter(pid, 1); err == nil {
		t.Fatal("syscall survived a wedged verifier")
	}
	snap := m.Snapshot()
	if got := snap.Counters["kernel.wedged_kills"].Total; got != 1 {
		t.Errorf("kernel.wedged_kills = %d, want 1", got)
	}
	if got := snap.Counters["kernel.kills"].Total; got != 1 {
		t.Errorf("kernel.kills = %d, want 1", got)
	}
}

func TestDegradedPolicyStrings(t *testing.T) {
	if DegradedFailClosed.String() != "fail-closed" || DegradedLogOnly.String() != "log-only" {
		t.Errorf("policy strings = %q, %q", DegradedFailClosed, DegradedLogOnly)
	}
	k := New(nil)
	if k.DegradedMode() != DegradedFailClosed {
		t.Error("default degraded mode is not fail-closed")
	}
}
