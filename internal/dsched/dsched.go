// Package dsched is the deterministic-scheduler plane: every
// goroutine-interleaving point in the kernel, the verifier pump and the
// supervisor yields through a schedule hook, the same pattern the chaos
// injector uses for faults — a no-op when nothing is installed, so the hot
// path and the zero-alloc guarantee are untouched.
//
// Two kinds of points exist, with different contracts:
//
//   - Yield points sit at lock-free interleaving edges (a lifecycle
//     notification about to be published, a run of messages about to be
//     delivered into its shard). An installed hook MAY park the calling goroutine there
//     and hand control to a scheduler, which is how the model checker
//     (internal/verify) explores orderings the Go scheduler would choose
//     arbitrarily.
//   - Note points sit inside critical sections (the kernel gate about to
//     block on its condition variable, with the kernel lock held). A hook
//     must treat them as observations only — record and return — because
//     parking with a lock held would wedge every other participant of that
//     lock.
//
// The package also virtualizes time for the code it schedules: Now and
// AfterFunc default to the real clock but are answered by the installed
// hooks when present, so a checker can trigger an epoch expiry as an
// explicit, deterministic transition instead of waiting two wall-clock
// seconds — and can reproduce tick-boundary races (a timer firing at
// exactly its deadline) that real clocks only hit by luck.
//
// Install swaps the global hook bundle atomically. Code that never calls
// Install pays one atomic pointer load and a predictable branch per point;
// points are placed per batch or per lifecycle edge, never per message.
package dsched

import (
	"sync/atomic"
	"time"
)

// Point identifies one interleaving point. The set is small and stable:
// schedules recorded by the checker name points, so renumbering breaks
// replayability of stored schedules.
type Point uint8

const (
	// PointNone is the zero value; never yielded.
	PointNone Point = iota

	// PointRegisterVisible is yielded by Kernel.Register between the
	// verifier notification and the moment the new context becomes visible
	// in the kernel's process table (in the pre-fix ordering: between
	// visibility and notification — the race window the checker flushes
	// out). pid is the new process.
	PointRegisterVisible

	// PointForkVisible is the same edge in Kernel.Fork; pid is the child.
	PointForkVisible

	// PointExitNotify is yielded by Kernel.Exit between tearing down the
	// kernel context and notifying the verifier: a window where the kernel
	// has forgotten the process but the verifier still holds its policy
	// context.
	PointExitNotify

	// PointKillNotify is yielded by Kernel.Kill between marking the
	// process killed and notifying the KillListener: a window where the
	// kernel will fail the process's gates but the verifier still
	// evaluates its in-flight messages.
	PointKillNotify

	// PointGateBlocked is noted (never parked: the kernel lock is held)
	// immediately before a gated system call blocks on its condition
	// variable. The checker uses it to learn, deterministically, that a
	// gate goroutine has reached quiescence.
	PointGateBlocked

	// PointShardDeliver is yielded by a verifier drain loop immediately
	// before it delivers a run of the burst it has read into the run's
	// shard. The goroutine holds no lock there.
	PointShardDeliver

	// PointPoisonCheck is noted by the delivery path when it consults the
	// shard's poisoned flag (observation only: the check is the first step
	// of the locked delivery round).
	PointPoisonCheck

	// PointLaunchAdmitted is yielded by the supervisor after a Launch has
	// been admitted (counted in-flight) but before the kernel context is
	// registered.
	PointLaunchAdmitted

	// PointProcFinished is yielded by the supervisor after a monitored
	// program's channel has fully drained but before its kernel context is
	// torn down.
	PointProcFinished

	// PointShutdownBegin is yielded by the supervisor after Shutdown has
	// closed admission but before it begins waiting out in-flight work.
	PointShutdownBegin

	numPoints
)

var pointNames = [...]string{
	PointNone:            "none",
	PointRegisterVisible: "register-visible",
	PointForkVisible:     "fork-visible",
	PointExitNotify:      "exit-notify",
	PointKillNotify:      "kill-notify",
	PointGateBlocked:     "gate-blocked",
	PointShardDeliver:    "shard-deliver",
	PointPoisonCheck:     "poison-check",
	PointLaunchAdmitted:  "launch-admitted",
	PointProcFinished:    "proc-finished",
	PointShutdownBegin:   "shutdown-begin",
}

func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return "point(?)"
}

// Timer is the stoppable, re-armable timer handed out by AfterFunc. The
// real implementation wraps *time.Timer; a scheduler's implementation
// records a virtual deadline the checker fires as an explicit transition.
type Timer interface {
	// Reset re-arms the timer to fire after d. Like time.Timer.Reset it
	// may be called on an expired or armed timer.
	Reset(d time.Duration)
	// Stop disarms the timer, reporting whether it was still armed.
	Stop() bool
}

// Hooks is the bundle a deterministic scheduler (or a recorder) installs.
// Yield may park the calling goroutine; Note must record and return; Now
// and AfterFunc answer the virtual clock.
type Hooks interface {
	Yield(p Point, pid int32)
	Note(p Point, pid int32)
	Now() time.Time
	AfterFunc(d time.Duration, f func()) Timer
}

// active holds the installed hook bundle. An interface can't live in an
// atomic.Pointer directly, so it rides in a box.
type hookBox struct{ h Hooks }

var active atomic.Pointer[hookBox]

// Install makes h the process-wide hook bundle. Passing nil uninstalls.
// Install must not race with itself; points may be hit concurrently at any
// time (the load is atomic).
func Install(h Hooks) {
	if h == nil {
		active.Store(nil)
		return
	}
	active.Store(&hookBox{h: h})
}

// Uninstall removes the hook bundle; every point reverts to a no-op and
// the clock to real time.
func Uninstall() { active.Store(nil) }

// Active reports whether a hook bundle is installed.
func Active() bool { return active.Load() != nil }

// Yield is a schedulable interleaving point: no-op without hooks; with a
// scheduler installed, the calling goroutine may be parked here until the
// scheduler resumes it. Must only be placed where the caller holds no
// locks.
func Yield(p Point, pid int32) {
	if b := active.Load(); b != nil {
		b.h.Yield(p, pid)
	}
}

// Note is an observation-only point: no-op without hooks; hooks must
// record and return without blocking the caller indefinitely (locks may be
// held at Note sites).
func Note(p Point, pid int32) {
	if b := active.Load(); b != nil {
		b.h.Note(p, pid)
	}
}

// Now is the schedulable clock: real time without hooks, the scheduler's
// virtual clock with them.
func Now() time.Time {
	if b := active.Load(); b != nil {
		return b.h.Now()
	}
	return time.Now()
}

// AfterFunc arms a timer on the schedulable clock: a real time.AfterFunc
// without hooks, a virtual timer (fired explicitly by the checker) with
// them.
func AfterFunc(d time.Duration, f func()) Timer {
	if b := active.Load(); b != nil {
		return b.h.AfterFunc(d, f)
	}
	return realTimer{t: time.AfterFunc(d, f)}
}

type realTimer struct{ t *time.Timer }

func (r realTimer) Reset(d time.Duration) { r.t.Reset(d) }
func (r realTimer) Stop() bool            { return r.t.Stop() }
