package verify

import (
	"strings"
	"testing"
)

// TestBaseScopeClean explores the always-on families (launch, visibility,
// send, deliver, gate) at the default 2-proc × 2-shard scope with all fixes
// in place: no reachable interleaving violates an invariant.
func TestBaseScopeClean(t *testing.T) {
	res := Check(Config{CheckSeq: true})
	if !res.Clean() {
		t.Fatalf("base scope not clean:\n%s", res)
	}
	if res.StatesExplored == 0 {
		t.Fatal("exploration visited no states")
	}
	t.Logf("base scope: %d states, %d transitions", res.StatesExplored, res.TransitionsApplied)
}

// TestLifecycleScopeClean adds the lifecycle families — fork, exit, kill,
// epoch expiry, shard poison — still clean. This is the scope that exercises
// the two fixed races (registration-window kill buffering, epoch timer
// re-arm) from every reachable direction.
func TestLifecycleScopeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("lifecycle exploration is the slow half; run without -short")
	}
	cfg := Config{
		Fork: true, Exit: true, Kill: true, Expire: true, Poison: true,
		CheckSeq:  true,
		MaxDepth:  10,
		MaxStates: 3000,
	}
	res := Check(cfg)
	if !res.Clean() {
		t.Fatalf("lifecycle scope not clean:\n%s", res)
	}
	t.Logf("lifecycle scope: %d states, %d transitions, truncated=%v",
		res.StatesExplored, res.TransitionsApplied, res.Truncated)
}

// TestReorderWithCheckSeqClean: with §3.1.1 counter verification on, a
// reordered delivery is caught as an integrity violation (fatal kill), so
// the gate invariant holds in every interleaving — including sync-overtakes-
// data, which the registration-time seq baseline fix is what makes fatal.
func TestReorderWithCheckSeqClean(t *testing.T) {
	cfg := Config{Reorder: true, CheckSeq: true, MaxDepth: 12, MaxStates: 4000}
	res := Check(cfg)
	if !res.Clean() {
		t.Fatalf("reorder under CheckSeq not clean:\n%s", res)
	}
}

// TestCheckerCatchesReorderWithoutCheckSeq proves the checker can fail: with
// counter verification off, delivering the sync ahead of a data message lets
// the gate pass before that message is validated — the gate invariant
// violation the paper's counter exists to prevent.
func TestCheckerCatchesReorderWithoutCheckSeq(t *testing.T) {
	cfg := detector(t, InvGate)
	res := Check(cfg)
	if res.Clean() {
		t.Fatal("reorder without CheckSeq explored clean; the checker cannot detect a gate violation")
	}
	v := res.Violations[0]
	if v.Invariant != InvGate {
		t.Fatalf("violation invariant = %s, want %s\n%s", v.Invariant, InvGate, v)
	}
	// The minimized schedule must actually replay to the same violation.
	rv, err := Replay(cfg, v.Schedule)
	if err != nil {
		t.Fatalf("minimized schedule does not replay: %v", err)
	}
	if rv == nil || rv.Invariant != InvGate {
		t.Fatalf("minimized schedule replayed to %v, want %s", rv, InvGate)
	}
	t.Logf("minimal gate-violation schedule:\n%s", v)
}

// TestCheckerCatchesLateNotifyRace re-introduces the pre-fix registration
// ordering (kernel context visible before the verifier is notified) via
// UnsafeLateNotify. A launched process's source attaches only after Admit
// has registered it, so the window is reached by fork: a child's message
// rides its parent's source into a verifier that has no context for the
// child yet, is silently ignored, and the checker reports the lost message
// with a minimal schedule that replays.
func TestCheckerCatchesLateNotifyRace(t *testing.T) {
	cfg := detector(t, InvLostMessage)
	res := Check(cfg)
	if res.Clean() {
		t.Fatal("UnsafeLateNotify explored clean; the registration race is not being caught")
	}
	v := res.Violations[0]
	if v.Invariant != InvLostMessage {
		t.Fatalf("violation invariant = %s, want %s\n%s", v.Invariant, InvLostMessage, v)
	}
	// Greedy minimization must reduce this to its 5-step essence: launch and
	// register the parent, fork (the child parks in the window), send,
	// deliver.
	want := []string{"launch:A", "visible:A", "fork:A>B", "send:B", "deliver:B"}
	if strings.Join(v.Schedule, " ") != strings.Join(want, " ") {
		t.Errorf("minimal schedule = %v, want %v", v.Schedule, want)
	}
	if rv, err := Replay(cfg, v.Schedule); err != nil || rv == nil || rv.Invariant != InvLostMessage {
		t.Fatalf("minimal schedule replayed to %v (err %v), want %s", rv, err, InvLostMessage)
	}
}

// TestCheckerCatchesEpochTimerStall re-introduces the pre-fix epoch watchdog
// (timer armed once, waiter re-checks with a strict After) via
// UnsafeEpochTimer: firing the timer at exactly the deadline broadcasts
// once, the waiter re-enters its wait with no future wake-up, and the gate
// stalls forever — the liveness violation the re-arm fix removes.
func TestCheckerCatchesEpochTimerStall(t *testing.T) {
	cfg := detector(t, InvLiveness)
	res := Check(cfg)
	if res.Clean() {
		t.Fatal("UnsafeEpochTimer explored clean; the timer stall is not being caught")
	}
	v := res.Violations[0]
	if v.Invariant != InvLiveness {
		t.Fatalf("violation invariant = %s, want %s\n%s", v.Invariant, InvLiveness, v)
	}
	t.Logf("minimal stall schedule:\n%s", v)
}

// TestExpireScopeCleanWithFix is the counterpart: same scope, fixed timer —
// expiry at the exact deadline resolves the gate (fail-closed kill), clean.
func TestExpireScopeCleanWithFix(t *testing.T) {
	cfg := Config{Expire: true, CheckSeq: true, MaxDepth: 8, MaxStates: 2000}
	res := Check(cfg)
	if !res.Clean() {
		t.Fatalf("expire scope with fixed timer not clean:\n%s", res)
	}
}

// TestChurnScopeClean explores the connection-churn family — disconnect,
// resume-with-replay, lease expiry — exhaustively at single-process scope
// with CheckSeq on: however the connection churns, the preserved replay
// buffer keeps the counter stream gap-free and no honest process is killed
// by the counter check.
func TestChurnScopeClean(t *testing.T) {
	cfg := Config{Procs: 1, Conn: true, Expire: true, Kill: true,
		CheckSeq: true, MaxSends: 2, MaxDepth: 16, MaxStates: 100000}
	res := Check(cfg)
	if !res.Clean() {
		t.Fatalf("churn scope not clean:\n%s", res)
	}
	if res.Truncated {
		t.Fatal("churn scope truncated; it is expected to close exhaustively")
	}
	t.Logf("churn scope: %d states, %d transitions", res.StatesExplored, res.TransitionsApplied)
}

// TestCheckerCatchesSeverDrop proves the churn scope can fail: with
// UnsafeSeverDrop modeling a resume protocol that trims its replay buffer on
// write instead of on cumulative ack, a sever loses the oldest unforwarded
// frame, the resumed stream carries a counter gap, and CheckSeq kills an
// honest process — the no-churn-counter-kill violation.
func TestCheckerCatchesSeverDrop(t *testing.T) {
	cfg := detector(t, InvChurn)
	res := Check(cfg)
	if res.Clean() {
		t.Fatal("UnsafeSeverDrop explored clean; churn-induced counter kills are not being caught")
	}
	v := res.Violations[0]
	if v.Invariant != InvChurn {
		t.Fatalf("violation invariant = %s, want %s\n%s", v.Invariant, InvChurn, v)
	}
	// The minimized schedule must replay to the same violation, and must
	// actually contain the sever/resume pair — a counterexample without
	// churn would mean the invariant is tripping on something else.
	rv, err := Replay(cfg, v.Schedule)
	if err != nil {
		t.Fatalf("minimized schedule does not replay: %v", err)
	}
	if rv == nil || rv.Invariant != InvChurn {
		t.Fatalf("minimized schedule replayed to %v, want %s", rv, InvChurn)
	}
	var sawDisconnect, sawConnect bool
	for _, tr := range v.Schedule {
		sawDisconnect = sawDisconnect || strings.HasPrefix(tr, "disconnect:")
		sawConnect = sawConnect || strings.HasPrefix(tr, "connect:")
	}
	if !sawDisconnect || !sawConnect {
		t.Fatalf("minimal schedule lacks the sever/resume pair:\n%s", v)
	}
	t.Logf("minimal churn-kill schedule:\n%s", v)
}

// TestLeaseExpireReleasesBlockedGate replays the fail-closed path directly: a
// process blocks at its gate (sync still queued), its connection severs, and
// the lease expires — the kill must release the blocked gate rather than
// strand it, and the same schedule with a resume instead of an expiry ends
// with the process alive and the gate passed.
func TestLeaseExpireReleasesBlockedGate(t *testing.T) {
	cfg := Config{Conn: true, CheckSeq: true}
	v, err := Replay(cfg, []string{
		"launch:A", "visible:A", "gate:A", "disconnect:A", "lease-expire:A"})
	if err != nil {
		t.Fatalf("lease-expiry schedule failed to replay: %v", err)
	}
	if v != nil {
		t.Fatalf("lease-expiry schedule reported a violation:\n%s", v)
	}
	v, err = Replay(cfg, []string{
		"launch:A", "visible:A", "gate:A", "disconnect:A", "connect:A", "deliver:A"})
	if err != nil {
		t.Fatalf("resume schedule failed to replay: %v", err)
	}
	if v != nil {
		t.Fatalf("resume schedule reported a violation:\n%s", v)
	}
}

// TestReplayRecordedSchedule replays a schedule recorded from a real
// violating run (the UnsafeLateNotify lost-message counterexample) and
// asserts Replay reproduces the violation deterministically — the workflow a
// developer follows when the checker prints a schedule.
func TestReplayRecordedSchedule(t *testing.T) {
	cfg := Config{UnsafeLateNotify: true, Fork: true, CheckSeq: true}
	recorded := []string{"launch:A", "visible:A", "fork:A>B", "send:B", "deliver:B"}
	v, err := Replay(cfg, recorded)
	if err != nil {
		t.Fatalf("recorded schedule failed to replay: %v", err)
	}
	if v == nil {
		t.Fatal("recorded schedule replayed clean; want lost-message violation")
	}
	if v.Invariant != InvLostMessage {
		t.Fatalf("replayed invariant = %s, want %s", v.Invariant, InvLostMessage)
	}
	// The same schedule against the FIXED kernel is clean: the verifier
	// learns the pid before the registration window opens.
	fixed := Config{Fork: true, CheckSeq: true}
	if v, err := Replay(fixed, recorded); err != nil || v != nil {
		t.Fatalf("fixed kernel replay: violation=%v err=%v, want clean", v, err)
	}
	// A launched process cannot be delivered to in its window: its source
	// is attached only when Admit returns.
	if _, err := Replay(cfg, []string{"launch:A", "send:A", "deliver:A"}); err == nil {
		t.Fatal("a delivery into a launched process's registration window replayed")
	}
}

// TestAccountingInvariantTrips hand-builds the two ways the supervisor's
// books can disagree with the model — an admission the model did not make,
// and a finished process whose frozen row the model expects in another
// state — and asserts each is reported as supervisor-accounting.
func TestAccountingInvariantTrips(t *testing.T) {
	cfg := Config{Exit: true, CheckSeq: true}.withDefaults()
	build := func(schedule ...string) *world {
		w := newWorld(cfg)
		for _, tr := range schedule {
			if v := w.step(tr); v != nil {
				t.Fatalf("%s: %v", tr, v)
			}
		}
		return w
	}

	w := build("launch:A", "visible:A")
	stray, err := w.sys.Admit(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := w.checkInvariants(); v == nil || v.Invariant != InvAccounting {
		t.Errorf("admission behind the model's back reported %v, want %s", v, InvAccounting)
	}
	stray.Close()
	w.teardown()

	w = build("launch:A", "visible:A", "exit:A", "exitdone:A")
	w.procs["A"].killed = true
	if v := w.checkInvariants(); v == nil || v.Invariant != InvAccounting {
		t.Errorf("an exited row the model expects killed reported %v, want %s", v, InvAccounting)
	}
	w.teardown()
}

// detector returns the configuration of the Detectors entry that must catch
// inv.
func detector(t *testing.T, inv string) Config {
	t.Helper()
	for _, d := range Detectors() {
		if d.Invariant == inv {
			return d.Config
		}
	}
	t.Fatalf("no detector catches %s", inv)
	return Config{}
}

// TestReplayStaleScheduleErrors: a schedule referencing state that does not
// exist must error (not panic, not report a bogus violation) — this is how
// Replay distinguishes a stale schedule from a healthy protocol.
func TestReplayStaleScheduleErrors(t *testing.T) {
	if _, err := Replay(Config{CheckSeq: true}, []string{"visible:A"}); err == nil {
		t.Fatal("stale schedule (visible before launch) replayed without error")
	}
	if _, err := Replay(Config{CheckSeq: true}, []string{"launch:A", "frobnicate:A"}); err == nil {
		t.Fatal("unknown transition replayed without error")
	}
}
