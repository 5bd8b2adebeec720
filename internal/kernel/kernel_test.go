package kernel

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// recordingListener captures privileged-channel notifications.
type recordingListener struct {
	nopListener
	mu      sync.Mutex
	started []int32
	forked  [][2]int32
	exited  []int32
	killed  []int32
	reasons []string
}

func (l *recordingListener) ProcessStarted(pid int32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.started = append(l.started, pid)
}

func (l *recordingListener) ProcessForked(parent, child int32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.forked = append(l.forked, [2]int32{parent, child})
}

func (l *recordingListener) ProcessExited(pid int32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.exited = append(l.exited, pid)
}

func (l *recordingListener) ProcessKilled(pid int32, reason string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.killed = append(l.killed, pid)
	l.reasons = append(l.reasons, reason)
}

func TestRegisterNotifiesVerifier(t *testing.T) {
	l := &recordingListener{}
	k := New(l)
	pid := k.Register()
	if pid == 0 {
		t.Fatal("zero pid")
	}
	if len(l.started) != 1 || l.started[0] != pid {
		t.Errorf("ProcessStarted notifications = %v", l.started)
	}
}

func TestDistinctPIDs(t *testing.T) {
	k := New(nil)
	a, b := k.Register(), k.Register()
	if a == b {
		t.Error("duplicate PIDs")
	}
}

func TestSyscallProceedsWhenSyncReady(t *testing.T) {
	k := New(nil)
	pid := k.Register()
	k.NotifySyncReady(pid)
	if err := k.SyscallEnter(pid, 1); err != nil {
		t.Fatalf("SyscallEnter with sync ready: %v", err)
	}
	// The flag must have been reset: a second syscall without a new sync
	// message stalls and eventually times out.
	k.Epoch = 20 * time.Millisecond
	if err := k.SyscallEnter(pid, 1); err == nil {
		t.Error("second syscall proceeded without a new sync message")
	}
	if killed, reason := k.Killed(pid); !killed || reason == "" {
		t.Errorf("epoch expiry did not kill: %t %q", killed, reason)
	}
}

func TestSyscallBlocksUntilVerifierConfirms(t *testing.T) {
	k := New(nil)
	pid := k.Register()
	released := make(chan error, 1)
	go func() { released <- k.SyscallEnter(pid, 42) }()
	// Give the syscall a moment to block, then confirm.
	time.Sleep(10 * time.Millisecond)
	select {
	case err := <-released:
		t.Fatalf("syscall did not block: %v", err)
	default:
	}
	k.NotifySyncReady(pid)
	select {
	case err := <-released:
		if err != nil {
			t.Fatalf("syscall failed after confirmation: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("syscall never resumed after confirmation")
	}
	st, _ := k.Stats(pid)
	if st.SyncStalls != 1 || st.Syscalls != 1 {
		t.Errorf("stats = %+v, want 1 stall / 1 syscall", st)
	}
}

func TestEpochTimeoutKills(t *testing.T) {
	k := New(nil)
	k.Epoch = 15 * time.Millisecond
	pid := k.Register()
	start := time.Now()
	err := k.SyscallEnter(pid, 1)
	if err == nil {
		t.Fatal("syscall proceeded with no sync message ever sent")
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("timed out too quickly: %v", elapsed)
	}
	if killed, _ := k.Killed(pid); !killed {
		t.Error("process not killed after epoch expiry")
	}
}

func TestKillInterruptsPendingSyscall(t *testing.T) {
	k := New(nil)
	pid := k.Register()
	released := make(chan error, 1)
	go func() { released <- k.SyscallEnter(pid, 1) }()
	time.Sleep(5 * time.Millisecond)
	k.Kill(pid, "policy violation")
	select {
	case err := <-released:
		if err == nil {
			t.Error("killed process's syscall succeeded")
		}
	case <-time.After(time.Second):
		t.Fatal("kill did not release the pending syscall")
	}
	// Further syscalls fail immediately.
	if err := k.SyscallEnter(pid, 2); err == nil {
		t.Error("syscall after kill succeeded")
	}
}

func TestKillIsIdempotentAndKeepsFirstReason(t *testing.T) {
	k := New(nil)
	pid := k.Register()
	k.Kill(pid, "first")
	k.Kill(pid, "second")
	_, reason := k.Killed(pid)
	if reason != "first" {
		t.Errorf("reason = %q, want first", reason)
	}
}

func TestForkNotifiesAndAllocatesChild(t *testing.T) {
	l := &recordingListener{}
	k := New(l)
	parent := k.Register()
	child, err := k.Fork(parent)
	if err != nil {
		t.Fatal(err)
	}
	if child == parent {
		t.Error("child pid equals parent")
	}
	if len(l.forked) != 1 || l.forked[0] != [2]int32{parent, child} {
		t.Errorf("fork notifications = %v", l.forked)
	}
	// Child context is live: sync + syscall work.
	k.NotifySyncReady(child)
	if err := k.SyscallEnter(child, 1); err != nil {
		t.Errorf("child syscall: %v", err)
	}
	if _, err := k.Fork(9999); err == nil {
		t.Error("fork from unregistered pid succeeded")
	}
}

func TestExitNotifiesAndRemoves(t *testing.T) {
	l := &recordingListener{}
	k := New(l)
	pid := k.Register()
	k.Exit(pid)
	if len(l.exited) != 1 || l.exited[0] != pid {
		t.Errorf("exit notifications = %v", l.exited)
	}
	if err := k.SyscallEnter(pid, 1); err == nil {
		t.Error("syscall from exited process succeeded")
	}
}

func TestExitReleasesBlockedSyscall(t *testing.T) {
	// Regression: Exit used to delete the proc entry without waking
	// cond-waiters, so a goroutine blocked in SyscallEnter for a
	// concurrently-exiting process slept out the full epoch and then
	// recorded a bogus "synchronization epoch expired" kill. The waiter
	// must instead return promptly with ErrProcessExited.
	k := New(nil)
	k.Epoch = 30 * time.Second // long enough that only the broadcast can release us
	pid := k.Register()
	released := make(chan error, 1)
	go func() { released <- k.SyscallEnter(pid, 1) }()
	time.Sleep(10 * time.Millisecond) // let the syscall block
	start := time.Now()
	k.Exit(pid)
	select {
	case err := <-released:
		if !errors.Is(err, ErrProcessExited) {
			t.Errorf("SyscallEnter after exit = %v, want ErrProcessExited", err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("waiter released after %v, want promptly", elapsed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Exit did not wake the blocked syscall")
	}
	if killed, reason := k.Killed(pid); killed {
		t.Errorf("exit recorded a kill: %q", reason)
	}
}

func TestExitBeatsEpochExpiry(t *testing.T) {
	// Even with a short epoch, an exit that lands first must win: the
	// waiter reports ErrProcessExited, not an epoch-expiry kill.
	k := New(nil)
	k.Epoch = 250 * time.Millisecond
	pid := k.Register()
	released := make(chan error, 1)
	go func() { released <- k.SyscallEnter(pid, 1) }()
	time.Sleep(5 * time.Millisecond)
	k.Exit(pid)
	err := <-released
	if !errors.Is(err, ErrProcessExited) {
		t.Errorf("err = %v, want ErrProcessExited", err)
	}
}

func TestExitKillRaceAgainstStalledSyscall(t *testing.T) {
	// Race Exit and Kill against stalled SyscallEnter waiters across many
	// processes; run under -race. Every waiter must return an error (the
	// process exited or was killed) and nothing may deadlock.
	k := New(nil)
	k.Epoch = 10 * time.Second
	const procs = 16
	var wg sync.WaitGroup
	errs := make(chan error, procs)
	for i := 0; i < procs; i++ {
		pid := k.Register()
		wg.Add(1)
		go func(pid int32) {
			defer wg.Done()
			errs <- k.SyscallEnter(pid, 1)
		}(pid)
		wg.Add(1)
		go func(pid int32, i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i%4) * time.Millisecond)
			if i%2 == 0 {
				k.Exit(pid)
			} else {
				k.Kill(pid, "raced kill")
				k.Exit(pid)
			}
		}(pid, i)
	}
	wg.Wait()
	close(errs)
	n := 0
	for err := range errs {
		n++
		if err == nil {
			t.Error("stalled syscall succeeded despite exit/kill")
		}
	}
	if n != procs {
		t.Errorf("collected %d results, want %d", n, procs)
	}
}

func TestKillNotifiesListener(t *testing.T) {
	l := &recordingListener{}
	k := New(l)
	pid := k.Register()
	k.Kill(pid, "policy violation")
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.killed) != 1 || l.killed[0] != pid {
		t.Errorf("ProcessKilled notifications = %v", l.killed)
	}
	if l.reasons[0] != "policy violation" {
		t.Errorf("reason = %q", l.reasons[0])
	}
}

func TestEpochExpiryNotifiesListener(t *testing.T) {
	l := &recordingListener{}
	k := New(l)
	k.Epoch = 15 * time.Millisecond
	pid := k.Register()
	if err := k.SyscallEnter(pid, 1); err == nil {
		t.Fatal("syscall survived with no sync message")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.killed) != 1 || l.killed[0] != pid {
		t.Errorf("epoch expiry did not reach the kill listener: %v", l.killed)
	}
}

func TestUnregisteredSyscallFails(t *testing.T) {
	k := New(nil)
	if err := k.SyscallEnter(555, 1); err == nil {
		t.Error("syscall from unregistered pid succeeded")
	}
}

func TestNotifySyncReadyUnknownPIDIsNoop(t *testing.T) {
	k := New(nil)
	k.NotifySyncReady(777) // must not panic
	k.Kill(777, "x")       // must not panic
	if killed, _ := k.Killed(777); killed {
		t.Error("unknown pid reported killed")
	}
}
