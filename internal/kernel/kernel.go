// Package kernel models the HerQules kernel module (§3.3): it maintains a
// per-process context for every program that has enabled HerQules,
// intercepts system calls, and implements bounded asynchronous validation
// (§2.2) by pausing each system call until the verifier confirms — over a
// privileged channel the monitored program cannot touch — that every
// in-flight message has been processed and no policy check failed.
//
// The real system intercepts syscalls with kprobes/tracepoints; here the VM
// calls SyscallEnter explicitly, which is the same interposition point.
//
// The kernel and the verifier talk over one privileged channel in each
// direction: the kernel reaches the verifier only through its Listener
// (lifecycle events, kills, the wedge probe at an epoch deadline and the
// gate's flight stamps), and the verifier reaches the kernel only through
// NotifySyncReady and Kill.
package kernel

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"herqules/internal/dsched"
	"herqules/internal/telemetry"
)

// DefaultEpoch is the default synchronization timeout: if no System-Call
// message arrives within this window while a system call is pending, the
// kernel treats the silence as a policy violation and terminates the
// monitored program (§2.2).
const DefaultEpoch = 2 * time.Second

// ErrProcessExited is returned (wrapped) by SyscallEnter when the process's
// kernel context was torn down by Exit while the call was pending or before
// it was made. It is distinct from a kill: the process left voluntarily, no
// policy was violated.
var ErrProcessExited = errors.New("process exited")

// Kill reasons recorded at an epoch deadline. ReasonEpochExpired is the
// generic §2.2 timeout: no System-Call message arrived, cause unknown.
// ReasonWedgedVerifier is the distinct degraded-mode reason recorded when
// the listener's WedgedFor positively attributes the silence to a verifier
// that has stopped making progress for this process (e.g. its context was
// poisoned by a contained delivery-path panic); the full reason carries its
// detail after a colon.
const (
	ReasonEpochExpired   = "synchronization epoch expired"
	ReasonWedgedVerifier = "synchronization epoch expired: verifier wedged"
	// ReasonLeaseExpired is recorded by the networked attestation plane
	// (internal/hqnet) when a resident process's connection lease runs out:
	// the client stopped heartbeating and did not resume within the lease.
	// Distinct from ReasonEpochExpired so forensics can separate "the
	// transport died" from "validation fell behind" — a severed connection
	// must never masquerade as a message-counter or epoch violation.
	ReasonLeaseExpired = "connection lease expired"
)

// DegradedPolicy selects how the kernel treats an epoch expiry — the moment
// bounded asynchronous validation (§2.2) detects that validation is not
// keeping up, whether from an attack suppressing messages or a wedged
// verifier. The zero value fails closed, which is the only sound default:
// an enforcement system that fails open under pressure invites inducing that
// pressure.
type DegradedPolicy int

const (
	// DegradedFailClosed kills the process at the epoch deadline (default).
	DegradedFailClosed DegradedPolicy = iota
	// DegradedLogOnly records the expiry (counter + event + per-process
	// stats) and lets the system call proceed. Fail-open: measurement and
	// chaos experiments only, never production enforcement.
	DegradedLogOnly
)

func (p DegradedPolicy) String() string {
	switch p {
	case DegradedFailClosed:
		return "fail-closed"
	case DegradedLogOnly:
		return "log-only"
	default:
		return fmt.Sprintf("degraded-policy(%d)", int(p))
	}
}

// Listener is the kernel→verifier privileged channel (edges 1b and 4a of
// Figure 1): the verifier learns about process lifecycle events, kills and
// gate timelines from the kernel, never from the untrusted program, and the
// kernel asks it, at an epoch deadline, whether validation is stuck. A
// kernel always has one: New(nil) and SetListener(nil) install a no-op
// listener. *verifier.Verifier implements it.
//
// Every method but WedgedFor is called outside the kernel's lock and may
// take the verifier's own locks or call back into the kernel.
type Listener interface {
	// ProcessStarted is invoked when a process enables HerQules, before its
	// kernel context becomes visible.
	ProcessStarted(pid int32)
	// ProcessForked is invoked on fork/clone, before the child's context
	// becomes visible; the verifier duplicates the parent's policy context
	// for the child (§3.4).
	ProcessForked(parent, child int32)
	// ProcessExited is invoked when a process terminates; the verifier
	// destroys its policy context.
	ProcessExited(pid int32)
	// ProcessKilled is invoked once per killed process, after the kill is
	// marked — explicit Kill calls and epoch-expiry kills alike — so the
	// verifier stops evaluating (and stops accumulating violations for) a
	// process that is already dead.
	ProcessKilled(pid int32, reason string)
	// WedgedFor reports whether validation for pid is permanently stuck,
	// with a human-readable detail when it is. The kernel calls it at an
	// epoch deadline with its own lock held, so it must be lock-free with
	// respect to every path that calls into the kernel: it may take no lock
	// the verifier holds across a Kill or NotifySyncReady.
	WedgedFor(pid int32) (wedged bool, detail string)
	// StampFlightEvent stamps a gate lifecycle event (a stall, an epoch
	// expiry, a degraded bypass, a lease expiry) into pid's flight ring,
	// which the verifier owns.
	StampFlightEvent(pid int32, code telemetry.FlightCode, value uint64)
}

// nopListener is the listener of a kernel no verifier has attached to:
// nothing hears its events, and no process is ever wedged.
type nopListener struct{}

func (nopListener) ProcessStarted(int32)                                 {}
func (nopListener) ProcessForked(int32, int32)                           {}
func (nopListener) ProcessExited(int32)                                  {}
func (nopListener) ProcessKilled(int32, string)                          {}
func (nopListener) WedgedFor(int32) (bool, string)                       { return false, "" }
func (nopListener) StampFlightEvent(int32, telemetry.FlightCode, uint64) {}

// proc is the kernel-side context for one monitored process: the boolean
// synchronization variable of §3.3 plus bookkeeping.
type proc struct {
	pid        int32
	syncReady  bool // set by verifier on System-Call message, reset on resume
	killed     bool
	exited     bool // context torn down by Exit; waiters must not epoch-kill
	killReason string
	cond       *sync.Cond

	stats ProcStats
}

// ProcStats are the per-process statistics the kernel context maintains.
type ProcStats struct {
	Syscalls   uint64 `json:"syscalls"`    // system calls gated
	SyncStalls uint64 `json:"sync_stalls"` // system calls that had to wait for the verifier

	// LastSyscallUnixNanos is the wall-clock epoch (UnixNano) of the most
	// recent gated system call — the per-PID liveness figure /procs reports
	// for a resident system.
	LastSyscallUnixNanos int64 `json:"last_syscall_unix_nanos,omitempty"`

	// DegradedAllows counts system calls that expired their epoch but were
	// allowed to proceed because the kernel runs under DegradedLogOnly. Any
	// non-zero value means enforcement was bypassed for this process.
	DegradedAllows uint64 `json:"degraded_allows,omitempty"`

	// StallNs is this process's own syscall-gate stall distribution
	// (nanoseconds spent waiting for the verifier to catch up, §2.2). It is
	// maintained under the kernel lock and complements the registry-wide
	// kernel.syscall_stall_ns histogram with per-PID attribution.
	StallNs telemetry.HistogramSnapshot `json:"syscall_stall_ns"`
}

// KeyProgrammer is the kernel's hook into the message-authentication keyring
// (policy.Keyring implements it). When attached, the kernel programs a fresh
// key the moment it allocates a PID — before the verifier is notified and
// before the process becomes visible — copies it across fork, and drops it at
// exit. This models the paper's kernel-managed PID register extended to a
// keyed channel: the monitored process never chooses its own key.
type KeyProgrammer interface {
	// Program generates and stores a key for a newly registered pid.
	Program(pid int32)
	// Inherit copies the parent's key to a forked child.
	Inherit(parent, child int32)
	// Drop forgets pid's key at exit.
	Drop(pid int32)
}

// pendingReg is the bookkeeping for a process whose verifier context is
// being created but whose kernel context is not yet visible (the
// register-before-visible window). A kill arriving in that window — the
// verifier condemning a violating first message, delivered once its context
// exists — is buffered here and applied the moment
// the context is inserted, so exactly-one-kill holds across the hand-off.
type pendingReg struct {
	killed bool
	reason string
}

// Kernel is the kernel-module model.
type Kernel struct {
	mu          sync.Mutex
	procs       map[int32]*proc
	registering map[int32]*pendingReg // allocated PIDs not yet visible in procs
	nextPID     int32
	listener    Listener
	degraded    DegradedPolicy
	keys        KeyProgrammer

	// Epoch is the synchronization timeout (§2.2). Zero means
	// DefaultEpoch.
	Epoch time.Duration

	tm kernelMetrics
}

// kernelMetrics caches the kernel's telemetry instruments, resolved once at
// construction so the hot path pays only atomic adds.
type kernelMetrics struct {
	syscalls    *telemetry.Counter
	stalls      *telemetry.Counter
	expiries    *telemetry.Counter
	kills       *telemetry.Counter
	wedgedKills *telemetry.Counter
	degraded    *telemetry.Counter
	forks       *telemetry.Counter
	exits       *telemetry.Counter
	stallNs     *telemetry.Histogram
}

// New creates a kernel module instance counting into a metrics registry of
// its own. listener may be nil: no verifier is attached, and system calls
// then fail closed only on explicit Kill or at the epoch.
func New(listener Listener) *Kernel { return NewWithMetrics(listener, telemetry.New(0)) }

// NewWithMetrics is New counting into m, the registry a System shares among
// its components: the gate records a stall-time histogram per gated system
// call plus lifecycle and kill counters.
func NewWithMetrics(listener Listener, m *telemetry.Metrics) *Kernel {
	k := &Kernel{
		procs:       make(map[int32]*proc),
		registering: make(map[int32]*pendingReg),
		nextPID:     100,
		tm: kernelMetrics{
			syscalls:    m.Counter("kernel.syscalls"),
			stalls:      m.Counter("kernel.sync_stalls"),
			expiries:    m.Counter("kernel.epoch_expiries"),
			kills:       m.Counter("kernel.kills"),
			wedgedKills: m.Counter("kernel.wedged_kills"),
			degraded:    m.Counter("kernel.degraded_allows"),
			forks:       m.Counter("kernel.forks"),
			exits:       m.Counter("kernel.exits"),
			stallNs:     m.Histogram("kernel.syscall_stall_ns"),
		},
	}
	k.SetListener(listener)
	return k
}

// SetListener attaches the verifier's privileged channel after construction
// (used to break the construction cycle between kernel and verifier); nil
// installs the no-op listener. Must be called before concurrent use, like
// the other setters.
func (k *Kernel) SetListener(l Listener) {
	if l == nil {
		l = nopListener{}
	}
	k.mu.Lock()
	k.listener = l
	k.mu.Unlock()
}

// SetKeyring attaches the message-authentication keyring. Must be set before
// any process registers (like Epoch), so every PID has a key from birth.
func (k *Kernel) SetKeyring(kp KeyProgrammer) {
	k.mu.Lock()
	k.keys = kp
	k.mu.Unlock()
}

// SetDegradedPolicy selects the epoch-expiry behaviour. The default (zero
// value) is DegradedFailClosed.
func (k *Kernel) SetDegradedPolicy(p DegradedPolicy) {
	k.mu.Lock()
	k.degraded = p
	k.mu.Unlock()
}

// DegradedMode reports the active epoch-expiry policy.
func (k *Kernel) DegradedMode() DegradedPolicy {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.degraded
}

// Register allocates a kernel context for a process that enabled HerQules
// (edge 1a of Figure 1) and notifies the verifier (edge 1b). It returns the
// new PID.
//
// Ordering matters: the verifier is notified BEFORE the context becomes
// visible in the process table. The old ordering (visible first, notify
// after the lock dropped) left a window where a message from the new
// process could reach a verifier that had no policy context for it and be
// dropped as unregistered. Register-before-visible closes that window
// without holding k.mu across the listener call — the listener may call
// back into Kill (a verifier kill for the new pid), which takes k.mu; such
// kills land in the registering buffer and are applied at insertion. (The
// old ordering survives only as dsched.RevertLateNotify, for the model
// checker.)
func (k *Kernel) Register() int32 {
	k.mu.Lock()
	k.nextPID++
	pid := k.nextPID
	l := k.listener
	keys := k.keys
	if dsched.Reverted(dsched.RevertLateNotify) {
		k.insertLocked(pid)
		k.mu.Unlock()
		if keys != nil {
			keys.Program(pid)
		}
		dsched.Yield(dsched.PointRegisterVisible, pid)
		l.ProcessStarted(pid)
		return pid
	}
	k.registering[pid] = &pendingReg{}
	k.mu.Unlock()
	// The key exists before the verifier hears about the process, so its
	// ProcessStarted hooks (the hmac policy caching its key) cannot race it.
	if keys != nil {
		keys.Program(pid)
	}
	l.ProcessStarted(pid)
	dsched.Yield(dsched.PointRegisterVisible, pid)
	k.finishRegister(pid)
	return pid
}

// Fork allocates a context for a child of parent (fork/clone interception,
// §3.3) and notifies the verifier so it can duplicate the policy context.
// Same notify-before-visible ordering as Register, for the same race.
func (k *Kernel) Fork(parent int32) (int32, error) {
	k.mu.Lock()
	if _, ok := k.procs[parent]; !ok {
		k.mu.Unlock()
		return 0, fmt.Errorf("kernel: fork from unregistered pid %d", parent)
	}
	k.nextPID++
	child := k.nextPID
	l := k.listener
	keys := k.keys
	if dsched.Reverted(dsched.RevertLateNotify) {
		k.insertLocked(child)
		k.mu.Unlock()
		if keys != nil {
			keys.Inherit(parent, child)
		}
		k.tm.forks.Inc()
		dsched.Yield(dsched.PointForkVisible, child)
		l.ProcessForked(parent, child)
		return child, nil
	}
	k.registering[child] = &pendingReg{}
	k.mu.Unlock()
	if keys != nil {
		keys.Inherit(parent, child)
	}
	k.tm.forks.Inc()
	l.ProcessForked(parent, child)
	dsched.Yield(dsched.PointForkVisible, child)
	k.finishRegister(child)
	return child, nil
}

// insertLocked creates pid's context in the process table. Caller holds
// k.mu.
func (k *Kernel) insertLocked(pid int32) *proc {
	p := &proc{pid: pid}
	p.cond = sync.NewCond(&k.mu)
	k.procs[pid] = p
	return p
}

// finishRegister makes a notified PID visible, applying any kill that was
// buffered while the context was in flight (and only then telling the
// listener, preserving exactly-one-kill).
func (k *Kernel) finishRegister(pid int32) {
	k.mu.Lock()
	pr := k.registering[pid]
	delete(k.registering, pid)
	p := k.insertLocked(pid)
	var killedNow bool
	var reason string
	if pr != nil && pr.killed {
		killedNow = true
		reason = pr.reason
		p.killed = true
		p.killReason = reason
	}
	l := k.listener
	k.mu.Unlock()
	if killedNow {
		k.tm.kills.Inc()
		l.ProcessKilled(pid, reason)
	}
}

// Exit tears down the context for pid and notifies the verifier. Goroutines
// blocked in SyscallEnter for pid are woken and fail with ErrProcessExited:
// without the broadcast a waiter would sleep out the full epoch and then
// record a bogus "synchronization epoch expired" kill for a process that
// merely exited.
func (k *Kernel) Exit(pid int32) {
	k.mu.Lock()
	if p, ok := k.procs[pid]; ok {
		p.exited = true
		p.cond.Broadcast()
	}
	delete(k.procs, pid)
	l := k.listener
	keys := k.keys
	k.mu.Unlock()
	if keys != nil {
		keys.Drop(pid)
	}
	dsched.Yield(dsched.PointExitNotify, pid)
	k.tm.exits.Inc()
	l.ProcessExited(pid)
}

// SyscallEnter gates one system call (edge 3b of Figure 1): it blocks until
// the verifier has confirmed, via NotifySyncReady, that all messages sent
// before the syscall have been processed with no violation. If the
// confirmation does not arrive within the epoch, the process is killed
// (§2.2). It returns an error when the process has been killed.
func (k *Kernel) SyscallEnter(pid int32, syscallNo int) error {
	k.mu.Lock()
	tm := &k.tm
	l := k.listener
	p, ok := k.procs[pid]
	if !ok {
		k.mu.Unlock()
		return fmt.Errorf("kernel: syscall from unregistered pid %d: %w", pid, ErrProcessExited)
	}
	p.stats.Syscalls++
	p.stats.LastSyscallUnixNanos = time.Now().UnixNano()
	tm.syscalls.Inc()
	if p.killed {
		reason := p.killReason
		k.mu.Unlock()
		return fmt.Errorf("kernel: pid %d killed: %s", pid, reason)
	}
	var expired, wedged, logOnly, stalled bool
	var stallNs uint64
	if !p.syncReady {
		stalled = true
		p.stats.SyncStalls++
		tm.stalls.Inc()
		// The stall clock feeds both the telemetry histograms and the flight
		// recorder's gate timeline.
		stallStart := time.Now()
		epoch := k.Epoch
		if epoch == 0 {
			epoch = DefaultEpoch
		}
		// One clock drives expiry: the deadline is the single authority, the
		// timer exists only to wake this waiter, and it is re-armed for
		// exactly the remainder before every wait. The pre-fix shape (kept
		// as dsched.RevertEpochTimer so the checker can reproduce it) armed
		// the timer once and compared strictly — a broadcast landing a tick
		// before the comparison flipped re-entered Wait with no future
		// wake-up and stalled far past the epoch.
		reverted := dsched.Reverted(dsched.RevertEpochTimer)
		deadline := dsched.Now().Add(epoch)
		timer := dsched.AfterFunc(epoch, func() {
			k.mu.Lock()
			p.cond.Broadcast()
			k.mu.Unlock()
		})
		for !p.syncReady && !p.killed && !p.exited {
			now := dsched.Now()
			if epochExpired(now, deadline, reverted) {
				// No synchronization message within the epoch (§2.2).
				// Ask the listener whether the silence has a positive
				// attribution — a verifier that can no longer make
				// progress for this process — then apply the degraded
				// policy. WedgedFor is lock-free (see Listener), so
				// calling it with k.mu held cannot deadlock against
				// delivery.
				expired = true
				reason := ReasonEpochExpired
				if w, detail := l.WedgedFor(pid); w {
					wedged = true
					reason = ReasonWedgedVerifier
					if detail != "" {
						reason = ReasonWedgedVerifier + ": " + detail
					}
				}
				if k.degraded == DegradedLogOnly {
					// Fail-open mode: record the bypass and resume the
					// system call instead of killing.
					logOnly = true
					p.stats.DegradedAllows++
					break
				}
				p.killed = true
				p.killReason = reason
				break
			}
			if !reverted {
				timer.Reset(deadline.Sub(now))
			}
			dsched.Note(dsched.PointGateBlocked, pid)
			p.cond.Wait()
		}
		timer.Stop()
		stallNs = uint64(time.Since(stallStart))
		tm.stallNs.Observe(stallNs)
		// Per-PID attribution: fold the same stall into this process's
		// private distribution (k.mu is held here — cond.Wait reacquired it —
		// so the single-writer Record is safe).
		p.stats.StallNs.Record(stallNs)
	}
	if p.exited && !p.killed {
		// The process exited while this call was pending: fail the call
		// without treating the silence as a policy violation.
		k.mu.Unlock()
		return fmt.Errorf("kernel: pid %d: %w", pid, ErrProcessExited)
	}
	if logOnly && !p.killed {
		// DegradedLogOnly: the epoch expired but policy says observe, don't
		// enforce. Leave syncReady false — the next gated call stalls again,
		// so every bypassed epoch is individually counted.
		k.mu.Unlock()
		tm.expiries.Inc()
		tm.degraded.Inc()
		l.StampFlightEvent(pid, telemetry.FlightGateStall, stallNs)
		l.StampFlightEvent(pid, telemetry.FlightEpochExpired, uint64(syscallNo))
		l.StampFlightEvent(pid, telemetry.FlightDegradedAllow, uint64(syscallNo))
		return nil
	}
	if p.killed {
		reason := p.killReason
		k.mu.Unlock()
		if expired {
			tm.expiries.Inc()
			tm.kills.Inc()
			if wedged {
				tm.wedgedKills.Inc()
			}
			// Stamp the gate timeline BEFORE ProcessKilled: the kill notice
			// freezes the flight ring, and the stall + expiry that triggered
			// this kill belong inside the frozen window.
			l.StampFlightEvent(pid, telemetry.FlightGateStall, stallNs)
			l.StampFlightEvent(pid, telemetry.FlightEpochExpired, uint64(syscallNo))
			l.ProcessKilled(pid, reason)
		}
		return fmt.Errorf("kernel: pid %d killed: %s", pid, reason)
	}
	// Reset the synchronization variable upon resumption (§3.3).
	p.syncReady = false
	k.mu.Unlock()
	if stalled {
		l.StampFlightEvent(pid, telemetry.FlightGateStall, stallNs)
	}
	return nil
}

// epochExpired decides whether the gate's deadline has passed. The fixed
// comparison is inclusive (the instant the timer fires IS the expiry), so a
// wake-up at exactly the deadline always observes expiry. reverted selects
// the strict pre-fix comparison (dsched.RevertEpochTimer).
func epochExpired(now, deadline time.Time, reverted bool) bool {
	if reverted {
		return now.After(deadline)
	}
	return !now.Before(deadline)
}

// NotifySyncReady is called by the verifier (edge 4b of Figure 1) when it
// has processed a System-Call message for pid with no outstanding
// violations.
func (k *Kernel) NotifySyncReady(pid int32) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if p, ok := k.procs[pid]; ok {
		p.syncReady = true
		p.cond.Broadcast()
		dsched.Note(dsched.PointSyncReady, pid)
	}
}

// Kill marks pid killed; any pending or future system call fails. The
// verifier invokes this on policy violation (default behaviour, §3.4). The
// listener is notified (ProcessKilled), so the verifier stops evaluating
// messages for the dead process.
func (k *Kernel) Kill(pid int32, reason string) { k.kill(pid, reason, 0, 0) }

// ExpireLease kills pid for ReasonLeaseExpired, overdue past its connection
// lease, with FlightLeaseExpired stamped into its black box ahead of the kill
// notice that freezes it. The order is the epoch path's: the kill is marked
// under the kernel lock alone before anything takes the process's verifier
// context lock, so a context wedged under that lock holds up the window and
// the notice, never the kill itself.
func (k *Kernel) ExpireLease(pid int32, overdue time.Duration) {
	k.kill(pid, ReasonLeaseExpired, telemetry.FlightLeaseExpired, uint64(overdue))
}

// kill is Kill, stamping code (when non-zero) with value between marking the
// kill and notifying the listener.
func (k *Kernel) kill(pid int32, reason string, code telemetry.FlightCode, value uint64) {
	k.mu.Lock()
	p, ok := k.procs[pid]
	if !ok {
		// The context may be mid-registration: the verifier already knows
		// the pid (notify-before-visible) and can legitimately kill it —
		// e.g. for a violating first message. Buffer the
		// kill; finishRegister applies it and notifies the listener.
		if pr, reg := k.registering[pid]; reg && !pr.killed {
			pr.killed = true
			pr.reason = reason
		}
		k.mu.Unlock()
		return
	}
	if p.killed {
		k.mu.Unlock()
		return
	}
	p.killed = true
	p.killReason = reason
	p.cond.Broadcast()
	l := k.listener
	k.mu.Unlock()
	dsched.Yield(dsched.PointKillNotify, pid)
	k.tm.kills.Inc()
	if code != 0 {
		l.StampFlightEvent(pid, code, value)
	}
	l.ProcessKilled(pid, reason)
}

// Pids returns the PIDs of every process with a live kernel context, in
// ascending order. The supervisor iterates the process table during graceful
// shutdown (to kill stragglers once the deadline passes) and for aggregate
// accounting; like /proc, the listing is a snapshot — contexts may appear or
// vanish the moment the lock is released.
func (k *Kernel) Pids() []int32 {
	k.mu.Lock()
	pids := make([]int32, 0, len(k.procs))
	for pid := range k.procs {
		pids = append(pids, pid)
	}
	k.mu.Unlock()
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	return pids
}

// Killed reports whether pid has been killed and why.
func (k *Kernel) Killed(pid int32) (bool, string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if p, ok := k.procs[pid]; ok {
		return p.killed, p.killReason
	}
	return false, ""
}

// SyncReady reports the state of pid's synchronization variable (§3.3):
// true when a System-Call message has been validated and the next gated
// call will not stall. False for unknown pids. Exposed for the model
// checker's state fingerprint.
func (k *Kernel) SyncReady(pid int32) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if p, ok := k.procs[pid]; ok {
		return p.syncReady
	}
	return false
}

// Stats returns a copy of the per-process statistics.
func (k *Kernel) Stats(pid int32) (ProcStats, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p, ok := k.procs[pid]
	if !ok {
		return ProcStats{}, false
	}
	return p.stats, true
}
