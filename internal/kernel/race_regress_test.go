package kernel

import (
	"strings"
	"sync"
	"testing"
	"time"

	"herqules/internal/dsched"
)

// visibilityListener records, for every lifecycle notification, whether the
// subject's kernel context was already visible in the process table at the
// moment the verifier heard about it.
type visibilityListener struct {
	k  *Kernel
	mu sync.Mutex

	startedVisible map[int32]bool
	forkedVisible  map[int32]bool
	killed         map[int32][]string

	// killOnStart, when non-empty, makes ProcessStarted kill the new pid
	// with this reason — the poisoned-shard-at-birth callback shape.
	killOnStart string
}

func newVisibilityListener(k *Kernel) *visibilityListener {
	return &visibilityListener{
		k:              k,
		startedVisible: make(map[int32]bool),
		forkedVisible:  make(map[int32]bool),
		killed:         make(map[int32][]string),
	}
}

func (l *visibilityListener) ProcessStarted(pid int32) {
	vis := l.k.Registered(pid)
	l.mu.Lock()
	l.startedVisible[pid] = vis
	l.mu.Unlock()
	if l.killOnStart != "" {
		l.k.Kill(pid, l.killOnStart)
	}
}

func (l *visibilityListener) ProcessForked(parent, child int32) {
	vis := l.k.Registered(child)
	l.mu.Lock()
	l.forkedVisible[child] = vis
	l.mu.Unlock()
}

func (l *visibilityListener) ProcessExited(pid int32) {}

func (l *visibilityListener) ProcessKilled(pid int32, reason string) {
	l.mu.Lock()
	l.killed[pid] = append(l.killed[pid], reason)
	l.mu.Unlock()
}

// TestRegisterNotifiesBeforeVisible pins the fixed lifecycle ordering: the
// verifier learns about a new process before its context is visible, so no
// message the process sends can beat its policy context to the verifier.
func TestRegisterNotifiesBeforeVisible(t *testing.T) {
	k := New(nil)
	l := newVisibilityListener(k)
	k.SetListener(l)

	pid := k.Register()
	if l.startedVisible[pid] {
		t.Fatalf("pid %d was visible in the process table when ProcessStarted fired; want notify-before-visible", pid)
	}
	if !k.Registered(pid) {
		t.Fatalf("pid %d not visible after Register returned", pid)
	}

	child, err := k.Fork(pid)
	if err != nil {
		t.Fatal(err)
	}
	if l.forkedVisible[child] {
		t.Fatalf("child %d was visible when ProcessForked fired; want notify-before-visible", child)
	}
	if !k.Registered(child) {
		t.Fatalf("child %d not visible after Fork returned", child)
	}
}

// TestUnsafeLateNotifyRestoresOldOrdering: a scheduler carrying
// dsched.RevertLateNotify really reopens the window (visible before
// notified), on Register and on Fork — the shape the model checker must
// flag.
func TestUnsafeLateNotifyRestoresOldOrdering(t *testing.T) {
	dsched.Install(dsched.NewScheduler(dsched.RevertLateNotify))
	defer dsched.Uninstall()
	k := New(nil)
	l := newVisibilityListener(k)
	k.SetListener(l)

	pid := k.Register()
	if !l.startedVisible[pid] {
		t.Fatalf("RevertLateNotify: pid %d was not yet visible at ProcessStarted; the revert does not restore pre-fix ordering", pid)
	}
	child, err := k.Fork(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !l.forkedVisible[child] {
		t.Fatalf("RevertLateNotify: child %d was not yet visible at ProcessForked", child)
	}
}

// TestKillDuringRegistrationBuffered covers the deadlock-free half of the
// register fix: the listener's ProcessStarted callback kills the new pid
// (as the verifier does when the pid hashes to a poisoned, fail-closed
// shard). The kill lands while the context is mid-registration, must not
// deadlock, must stick, and must notify the KillListener exactly once.
func TestKillDuringRegistrationBuffered(t *testing.T) {
	k := New(nil)
	l := newVisibilityListener(k)
	l.killOnStart = "shard poisoned: fail closed"
	k.SetListener(l)

	done := make(chan int32, 1)
	go func() { done <- k.Register() }()
	var pid int32
	select {
	case pid = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Register deadlocked against a kill from its own notification callback")
	}

	killed, reason := k.Killed(pid)
	if !killed || reason != l.killOnStart {
		t.Fatalf("buffered kill not applied: killed=%v reason=%q", killed, reason)
	}
	if err := k.SyscallEnter(pid, 1); err == nil {
		t.Fatal("gate passed for a process killed at birth")
	}
	l.mu.Lock()
	n := len(l.killed[pid])
	l.mu.Unlock()
	if n != 1 {
		t.Fatalf("KillListener notified %d times, want exactly 1", n)
	}
}

// TestEpochExpiryExactBoundary drives the gate with the virtual clock and
// fires the epoch timer at exactly its deadline — the tick-boundary case
// the pre-fix code lost. Fixed kernel: the woken waiter observes expiry and
// kills. Under dsched.RevertEpochTimer: the waiter re-enters its wait with
// no future wake-up — the stall the model checker reports as a liveness
// violation.
func TestEpochExpiryExactBoundary(t *testing.T) {
	run := func(t *testing.T, unsafeTimer bool) {
		var reverts dsched.Revert
		if unsafeTimer {
			reverts = dsched.RevertEpochTimer
		}
		s := dsched.NewScheduler(reverts)
		dsched.Install(s)
		defer dsched.Uninstall()

		k := New(nil)
		k.Epoch = 2 * time.Second
		pid := k.Register()

		gate := s.Go("gate", pid, func() error {
			return k.SyscallEnter(pid, 1)
		})
		ev := s.Step(gate)
		if ev.Kind != dsched.EventBlocked {
			t.Fatalf("gate did not block: %v", ev)
		}
		if !s.TimerArmed(pid) {
			t.Fatal("epoch timer not armed on the virtual clock")
		}
		if !s.FireTimer(pid) {
			t.Fatal("FireTimer found no timer")
		}
		ev, ok := s.Await(gate, 2*time.Second)
		if !ok {
			t.Fatal("gate emitted nothing after the deadline broadcast")
		}

		if unsafeTimer {
			// Pre-fix shape: now == deadline, strict After is false, no
			// re-armed timer — the gate re-blocks with nothing left to wake
			// it. That IS the bug; then release it so the test can end.
			if ev.Kind != dsched.EventBlocked {
				t.Fatalf("unsafe timer: want the gate to stall (re-block), got %v", ev)
			}
			k.NotifySyncReady(pid)
			if ev, ok = s.Await(gate, 2*time.Second); !ok || ev.Kind != dsched.EventDone {
				t.Fatalf("gate did not finish after manual release: %v ok=%v", ev, ok)
			}
			if gate.Err() != nil {
				t.Fatalf("stalled-then-released gate returned %v, want nil", gate.Err())
			}
			return
		}

		if ev.Kind != dsched.EventDone {
			t.Fatalf("fixed timer: want the gate to finish with an epoch kill, got %v", ev)
		}
		if err := gate.Err(); err == nil || !strings.Contains(err.Error(), ReasonEpochExpired) {
			t.Fatalf("gate returned %v, want epoch-expired kill", err)
		}
		if killed, reason := k.Killed(pid); !killed || !strings.Contains(reason, ReasonEpochExpired) {
			t.Fatalf("process not epoch-killed: killed=%v reason=%q", killed, reason)
		}
	}

	t.Run("fixed", func(t *testing.T) { run(t, false) })
	t.Run("unsafe-stalls", func(t *testing.T) { run(t, true) })
}

// TestEpochExpiryAfterSpuriousWake: a broadcast that changes none of the
// gate's predicates (injected directly on the proc's condvar — the shape of
// any future broadcast-happy code path) wakes the waiter early. The fixed
// gate re-arms its timer for the exact remainder before re-waiting, so the
// expiry still lands and the process is still killed on time.
func TestEpochExpiryAfterSpuriousWake(t *testing.T) {
	s := dsched.NewScheduler(0)
	dsched.Install(s)
	defer dsched.Uninstall()

	k := New(nil)
	k.Epoch = 2 * time.Second
	pid := k.Register()

	gate := s.Go("gate", pid, func() error {
		return k.SyscallEnter(pid, 1)
	})
	if ev := s.Step(gate); ev.Kind != dsched.EventBlocked {
		t.Fatalf("gate did not block: %v", ev)
	}

	// Spurious wake: no predicate changes, no clock movement.
	k.mu.Lock()
	k.procs[pid].cond.Broadcast()
	k.mu.Unlock()
	if ev, ok := s.Await(gate, 2*time.Second); !ok || ev.Kind != dsched.EventBlocked {
		t.Fatalf("gate after spurious wake: %v ok=%v", ev, ok)
	}
	if !s.TimerArmed(pid) {
		t.Fatal("epoch timer not re-armed after a spurious wake")
	}
	if !s.FireTimer(pid) {
		t.Fatal("no timer to fire")
	}
	if ev, ok := s.Await(gate, 2*time.Second); !ok || ev.Kind != dsched.EventDone {
		t.Fatalf("gate after deadline: %v ok=%v", ev, ok)
	}
	if err := gate.Err(); err == nil || !strings.Contains(err.Error(), ReasonEpochExpired) {
		t.Fatalf("want epoch kill after re-armed expiry, got %v", err)
	}
}

// TestLastSyscallStampedWithoutTelemetry: the liveness stamp must not
// depend on a telemetry registry being wired.
func TestLastSyscallStampedWithoutTelemetry(t *testing.T) {
	k := New(nil)
	pid := k.Register()
	k.NotifySyncReady(pid)
	if err := k.SyscallEnter(pid, 42); err != nil {
		t.Fatal(err)
	}
	st, ok := k.Stats(pid)
	if !ok {
		t.Fatal("no stats")
	}
	if st.LastSyscallUnixNanos == 0 {
		t.Fatal("LastSyscallUnixNanos is zero without telemetry; must be stamped unconditionally")
	}
	if d := time.Since(time.Unix(0, st.LastSyscallUnixNanos)); d < 0 || d > time.Minute {
		t.Fatalf("stamp implausible: %v old", d)
	}
}
