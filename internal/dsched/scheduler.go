package dsched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies what a scheduled task just did.
type EventKind uint8

const (
	// EventParked: the task reached a Yield point and is parked until the
	// next Step.
	EventParked EventKind = iota
	// EventBlocked: the task noted PointGateBlocked and is about to block
	// in the kernel gate's condition wait. It resumes when kernel state
	// wakes it (a sync, kill, exit or timer broadcast), not via Step.
	EventBlocked
	// EventDone: the task's function returned; Task.Err holds its result.
	EventDone
)

func (k EventKind) String() string {
	switch k {
	case EventParked:
		return "parked"
	case EventBlocked:
		return "blocked"
	case EventDone:
		return "done"
	default:
		return "event(?)"
	}
}

// Event is one scheduling observation delivered to the controller: the task
// parked at a yield point, blocked at the gate, or completed.
type Event struct {
	Kind  EventKind
	Point Point
	PID   int32
}

func (e Event) String() string {
	if e.Kind == EventDone {
		return "done"
	}
	return fmt.Sprintf("%s@%s:%d", e.Kind, e.Point, e.PID)
}

// Task is one goroutine under deterministic control. It runs only between a
// Step call and its next Parked/Blocked/Done event; outside those windows
// the goroutine is either parked on the scheduler, blocked on kernel state,
// or finished. Exactly one task (or the controller itself) executes at any
// moment, which is what makes exploration deterministic.
type Task struct {
	Name string

	resume chan struct{}
	events chan Event
	pid    atomic.Int32

	err  error // written before the Done event is sent (happens-before via channel)
	done atomic.Bool
}

// Err returns the task function's result; valid once Done has been
// observed.
func (t *Task) Err() error { return t.err }

// Done reports whether the task has completed.
func (t *Task) Done() bool { return t.done.Load() }

// Scheduler is the cooperative controller the model checker installs via
// Install: Yield points park the currently stepped task, PointGateBlocked
// notes report gate quiescence, PointSyncReady notes are recorded for
// TakeSynced, and the clock is virtual — timers fire only when the
// controller calls FireTimer, as an explicit transition.
//
// The controller (the checker's goroutine) is single-threaded: it resumes
// exactly one task at a time with Step and waits for that task's next event
// before doing anything else. Code the controller runs inline (message
// delivery, poisoning) may hit Yield points too; they no-op, because
// no task is current.
type Scheduler struct {
	reverts Revert // fixed at construction, read by Install

	mu     sync.Mutex
	byPID  map[int32]*Task
	timers []*vtimer
	synced []int32 // pids noted at PointSyncReady since the last TakeSynced

	current atomic.Pointer[Task]
	vnow    atomic.Int64 // virtual ns since vbase
}

// vbase anchors the virtual clock at a fixed instant so schedules hash and
// replay identically across runs.
var vbase = time.Unix(1_700_000_000, 0)

// NewScheduler creates a controller with an empty task set and the virtual
// clock at its base instant. reverts names the fixed races the code it
// schedules reopens (0 for none).
func NewScheduler(reverts Revert) *Scheduler {
	return &Scheduler{reverts: reverts, byPID: make(map[int32]*Task)}
}

// Go creates a task that will run fn when first stepped. bindPID, when
// non-zero, routes PointGateBlocked notes for that pid to this task (used
// for gate tasks, which are woken by kernel broadcasts rather than Step).
// The goroutine starts parked: nothing runs until Step.
func (s *Scheduler) Go(name string, bindPID int32, fn func() error) *Task {
	t := &Task{
		Name:   name,
		resume: make(chan struct{}),
		events: make(chan Event, 64),
	}
	t.pid.Store(bindPID)
	if bindPID != 0 {
		s.mu.Lock()
		s.byPID[bindPID] = t
		s.mu.Unlock()
	}
	go func() {
		<-t.resume
		err := fn()
		t.err = err
		t.done.Store(true)
		s.current.CompareAndSwap(t, nil)
		t.events <- Event{Kind: EventDone}
	}()
	return t
}

// Step resumes t and waits for its next event: parked at a yield point,
// blocked at the gate, or done. It is the controller's only way to hand the
// processor to a task.
func (s *Scheduler) Step(t *Task) Event {
	s.current.Store(t)
	t.resume <- struct{}{}
	return <-t.events
}

// Await waits, without resuming anything, for t's next event — used after
// the controller performed an action that wakes a gate-blocked task (a
// sync notification, a kill, an exit, a fired timer). ok is false if no
// event arrives within timeout, which means the code under test failed to
// wake a waiter it should have — itself a reportable liveness violation.
func (s *Scheduler) Await(t *Task, timeout time.Duration) (Event, bool) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case ev := <-t.events:
		return ev, true
	case <-timer.C:
		return Event{}, false
	}
}

// Yield implements Hooks: park the currently stepped task. Calls from
// goroutines that are not the stepped task (the controller running inline
// deliveries, production goroutines) fall through.
func (s *Scheduler) Yield(p Point, pid int32) {
	t := s.current.Load()
	if t == nil {
		return
	}
	s.current.Store(nil)
	t.events <- Event{Kind: EventParked, Point: p, PID: pid}
	<-t.resume
}

// Note implements Hooks: record PointSyncReady, and route PointGateBlocked
// to the gate task owning pid. Both are noted with the kernel lock held, so
// this only records — the send is buffered and never parks.
func (s *Scheduler) Note(p Point, pid int32) {
	switch p {
	case PointSyncReady:
		s.mu.Lock()
		s.synced = append(s.synced, pid)
		s.mu.Unlock()
		return
	case PointGateBlocked:
	default:
		return
	}
	t := s.current.Load()
	if t == nil || t.pid.Load() != pid {
		s.mu.Lock()
		t = s.byPID[pid]
		s.mu.Unlock()
	}
	if t == nil {
		return
	}
	// The task is transitioning from "stepped" to "blocked on kernel
	// state": it is no longer schedulable via Step, so it must not be
	// current when the controller resumes.
	s.current.CompareAndSwap(t, nil)
	t.events <- Event{Kind: EventBlocked, Point: p, PID: pid}
}

// TakeSynced returns the pids noted at PointSyncReady since the last call,
// in the order they were noted, and forgets them.
func (s *Scheduler) TakeSynced() []int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	synced := s.synced
	s.synced = nil
	return synced
}

// Now implements Hooks: the virtual clock.
func (s *Scheduler) Now() time.Time {
	return vbase.Add(time.Duration(s.vnow.Load()))
}

// AfterFunc implements Hooks: register a virtual timer that fires only via
// FireTimer. The timer is attributed to the currently stepped task's bound
// pid (the kernel gate arms its epoch timer while being stepped), so the
// controller can later fire "the epoch timer of process P" by name.
func (s *Scheduler) AfterFunc(d time.Duration, f func()) Timer {
	var pid int32
	if t := s.current.Load(); t != nil {
		pid = t.pid.Load()
	}
	vt := &vtimer{s: s, pid: pid, f: f}
	s.mu.Lock()
	vt.when = s.vnow.Load() + int64(d)
	vt.armed = true
	s.timers = append(s.timers, vt)
	s.mu.Unlock()
	return vt
}

// TimerArmed reports whether pid has an armed virtual timer.
func (s *Scheduler) TimerArmed(pid int32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, vt := range s.timers {
		if vt.armed && vt.pid == pid {
			return true
		}
	}
	return false
}

// FireTimer fires pid's earliest armed virtual timer: the virtual clock
// advances to exactly the timer's deadline (reproducing the tick-boundary
// case a real clock only hits by luck) and the timer's function runs on the
// controller's goroutine. Reports whether a timer fired.
func (s *Scheduler) FireTimer(pid int32) bool {
	s.mu.Lock()
	var best *vtimer
	for _, vt := range s.timers {
		if vt.armed && vt.pid == pid && (best == nil || vt.when < best.when) {
			best = vt
		}
	}
	if best == nil {
		s.mu.Unlock()
		return false
	}
	best.armed = false
	if best.when > s.vnow.Load() {
		s.vnow.Store(best.when)
	}
	f := best.f
	s.mu.Unlock()
	f()
	return true
}

// vtimer is a virtual timer: armed state and deadline live under the
// scheduler lock; Reset re-arms relative to the current virtual instant.
type vtimer struct {
	s     *Scheduler
	pid   int32
	when  int64
	armed bool
	f     func()
}

func (vt *vtimer) Reset(d time.Duration) {
	vt.s.mu.Lock()
	vt.when = vt.s.vnow.Load() + int64(d)
	vt.armed = true
	vt.s.mu.Unlock()
}

func (vt *vtimer) Stop() bool {
	vt.s.mu.Lock()
	was := vt.armed
	vt.armed = false
	vt.s.mu.Unlock()
	return was
}

var _ Hooks = (*Scheduler)(nil)
var _ Timer = (*vtimer)(nil)
