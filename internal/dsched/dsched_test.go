package dsched

import (
	"errors"
	"testing"
	"time"
)

func TestPointsNoopWithoutInstall(t *testing.T) {
	Uninstall()
	if Active() {
		t.Fatal("hooks active before Install")
	}
	// Must return immediately and allocate nothing.
	Yield(PointRegisterVisible, 101)
	Note(PointGateBlocked, 101)
	if d := time.Since(Now()); d > time.Minute || d < -time.Minute {
		t.Fatalf("Now() without hooks is not wall time (off by %v)", d)
	}
	fired := make(chan struct{})
	tm := AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("real AfterFunc never fired")
	}
	tm.Stop()
}

func TestYieldAllocatesNothing(t *testing.T) {
	Uninstall()
	n := testing.AllocsPerRun(1000, func() {
		Yield(PointDeliver, 7)
		Note(PointPoisonCheck, 7)
	})
	if n != 0 {
		t.Fatalf("uninstalled Yield/Note allocate %v per run, want 0", n)
	}
}

func TestSchedulerParkStepDone(t *testing.T) {
	s := NewScheduler(0)
	Install(s)
	defer Uninstall()

	var trace []string
	task := s.Go("worker", 0, func() error {
		trace = append(trace, "a")
		Yield(PointRegisterVisible, 101)
		trace = append(trace, "b")
		Yield(PointExitNotify, 101)
		trace = append(trace, "c")
		return errors.New("finished")
	})

	// Nothing runs before the first Step.
	if len(trace) != 0 {
		t.Fatalf("task ran before Step: %v", trace)
	}
	ev := s.Step(task)
	if ev.Kind != EventParked || ev.Point != PointRegisterVisible {
		t.Fatalf("step 1 = %v", ev)
	}
	// The controller can hit Yield points itself without being parked.
	Yield(PointKillNotify, 999)

	ev = s.Step(task)
	if ev.Kind != EventParked || ev.Point != PointExitNotify {
		t.Fatalf("step 2 = %v", ev)
	}
	ev = s.Step(task)
	if ev.Kind != EventDone {
		t.Fatalf("step 3 = %v", ev)
	}
	if !task.Done() || task.Err() == nil || task.Err().Error() != "finished" {
		t.Fatalf("task done=%v err=%v", task.Done(), task.Err())
	}
	if got := len(trace); got != 3 {
		t.Fatalf("trace = %v", trace)
	}
}

func TestSchedulerVirtualTimer(t *testing.T) {
	s := NewScheduler(0)
	Install(s)
	defer Uninstall()

	start := s.Now()
	fired := false
	task := s.Go("gate", 42, func() error {
		AfterFunc(2*time.Second, func() { fired = true })
		Yield(PointRegisterVisible, 42)
		return nil
	})
	if ev := s.Step(task); ev.Kind != EventParked {
		t.Fatalf("step = %v", ev)
	}
	if !s.TimerArmed(42) {
		t.Fatal("timer not armed for pid 42")
	}
	if fired {
		t.Fatal("virtual timer fired on its own")
	}
	if !s.FireTimer(42) {
		t.Fatal("FireTimer found nothing")
	}
	if !fired {
		t.Fatal("FireTimer did not run the function")
	}
	if got := s.Now().Sub(start); got != 2*time.Second {
		t.Fatalf("virtual clock advanced %v, want exactly 2s", got)
	}
	if s.TimerArmed(42) {
		t.Fatal("timer still armed after firing")
	}
	if ev := s.Step(task); ev.Kind != EventDone {
		t.Fatalf("final step = %v", ev)
	}
}

func TestSchedulerBlockedNoteRouting(t *testing.T) {
	s := NewScheduler(0)
	Install(s)
	defer Uninstall()

	release := make(chan struct{})
	task := s.Go("gate", 7, func() error {
		Note(PointGateBlocked, 7) // first block: task is current
		<-release                 // stand-in for cond.Wait
		Note(PointGateBlocked, 7) // re-block after an external wake: routed by pid
		<-release
		return nil
	})
	ev := s.Step(task)
	if ev.Kind != EventBlocked || ev.PID != 7 {
		t.Fatalf("step = %v", ev)
	}
	// Wake it externally, as a kernel broadcast would.
	release <- struct{}{}
	ev, ok := s.Await(task, 2*time.Second)
	if !ok || ev.Kind != EventBlocked {
		t.Fatalf("await after wake = %v ok=%v", ev, ok)
	}
	release <- struct{}{}
	ev, ok = s.Await(task, 2*time.Second)
	if !ok || ev.Kind != EventDone {
		t.Fatalf("await done = %v ok=%v", ev, ok)
	}
}
