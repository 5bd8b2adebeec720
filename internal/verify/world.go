package verify

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"

	"herqules/internal/dsched"
	"herqules/internal/ipc"
	"herqules/internal/kernel"
	"herqules/internal/policy"
	"herqules/internal/supervisor"
	"herqules/internal/telemetry"
	"herqules/internal/verifier"
)

// Process lifecycle phases as the model tracks them. The two *window*
// phases are the interleaving targets: a process mid-registration (verifier
// notified, kernel context pending — or the reverse under
// dsched.RevertLateNotify) and a process mid-exit (kernel context gone,
// verifier context pending teardown).
const (
	phaseWindow     = iota // between launch/fork and visibility
	phaseLive              // fully registered
	phaseExitWindow        // kernel context torn down, verifier not yet notified
	phaseExited            // fully gone
)

// wproc is the model's view of one process, paired with the real contexts
// the kernel and verifier hold for it.
type wproc struct {
	name string
	pid  int32

	// src is the source the process's messages ride: its own for a launched
	// process, its parent's for a forked child (the inherited channel
	// mapping of §3.4). proc is a launched process's admission, set once
	// Admit returns; a child has none, the kernel alone forks and exits it.
	src  *source
	proc *supervisor.Proc

	phase int
	task  *dsched.Task // in-flight lifecycle task (launch, fork or exit)
	gate  *dsched.Task // in-flight SyscallEnter

	gateBlocked bool
	gatesDone   int
	// wantAtPass is the total message count (sends + the sync) enqueued
	// before the current gate: the gate invariant demands all of them be
	// validated by the time the gate passes.
	wantAtPass uint64

	nextSeq uint64 // next message counter (§3.1.1), starting at 1
	sends   int    // non-sync sends so far
	queue   []ipc.Message

	// expectValidated counts messages delivered while the process was not
	// killed (a poison kills too): each must appear in verifier.Messages or
	// it was silently lost.
	expectValidated uint64

	// killed is model-side: a kill has been issued for this pid before it
	// began to exit. It is what a launched process's frozen row must say.
	// A poisoned process is killed, and nothing else of it differs.
	killed bool

	// Connection-churn state (Config.Conn). A severed process's transport
	// is down: nothing it queued can be delivered and it cannot enter a
	// gate until it resumes. reordered records that the MODEL delivered
	// this process's messages out of order — those procs are exempt from
	// the no-churn-counter-kill invariant, since their counter kills are
	// legitimate CheckSeq behavior, not resume-protocol bugs.
	severed   bool
	severs    int
	reordered bool
}

// source is the receiver a launched process is admitted with. The real pump
// drain reads it one message per delivery, with the handshake of the
// verifier tests' roundReceiver cut to rounds of one: the RecvBatch call
// after a delivery reports it (back) before it waits for the next message
// (in), so deliver returns once the drain has evaluated the message and
// made its gate calls. Closing it ends the drain.
type source struct {
	owner  string // the launched process it was admitted with
	in     chan ipc.Message
	back   chan struct{}
	served bool // drain side: a message is out, report it on the next call
	closed bool // controller side
}

func newSource(owner string) *source {
	return &source{owner: owner, in: make(chan ipc.Message), back: make(chan struct{})}
}

func (r *source) RecvBatch(out []ipc.Message) (int, bool, error) {
	if r.served {
		r.back <- struct{}{}
	}
	m, ok := <-r.in
	if !ok {
		return 0, false, nil
	}
	out[0], r.served = m, true
	return 1, true, nil
}

func (r *source) deliver(m ipc.Message) {
	r.in <- m
	<-r.back
}

func (r *source) close() {
	if !r.closed {
		r.closed = true
		close(r.in)
	}
}

// launched reports whether p entered by Admit (rather than by fork).
func (p *wproc) launched() bool { return p.src.owner == p.name }

// tapListener interposes the kernel→verifier listener to count
// ProcessKilled notifications per pid (the exactly-one-kill invariant); every
// other event goes straight to the real verifier.
type tapListener struct {
	*verifier.Verifier

	mu        sync.Mutex
	killCount map[int32]int
}

func (l *tapListener) ProcessKilled(pid int32, reason string) {
	l.mu.Lock()
	l.killCount[pid]++
	l.mu.Unlock()
	l.Verifier.ProcessKilled(pid, reason)
}

func (l *tapListener) kills(pid int32) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.killCount[pid]
}

// world is one concrete instance of the system under check: a real
// supervisor.System (its kernel's listener tapped), a deterministic
// scheduler installed over the dsched hooks, and the model's bookkeeping.
// Worlds are built, driven by a transition sequence, and torn down; they are
// never reused.
type world struct {
	cfg Config
	s   *dsched.Scheduler
	sys *supervisor.System
	k   *kernel.Kernel
	v   *verifier.Verifier
	lis *tapListener

	procs map[string]*wproc
	order []string
	fpBuf []byte // fingerprint's scratch
}

func noPolicies() []policy.Policy { return nil }

// worldMetrics is the one registry every world counts into. The checker reads
// no counter, and a registry per world would be most of a world's setup.
var worldMetrics = telemetry.New(1)

func newWorld(cfg Config) *world {
	var reverts dsched.Revert
	if cfg.UnsafeLateNotify {
		reverts |= dsched.RevertLateNotify
	}
	if cfg.UnsafeEpochTimer {
		reverts |= dsched.RevertEpochTimer
	}
	s := dsched.NewScheduler(reverts)
	dsched.Install(s)
	sys := supervisor.New(supervisor.Config{
		Policies:        noPolicies,
		KillOnViolation: true,
		CheckSeq:        cfg.CheckSeq,
		Metrics:         worldMetrics,
		FlightRecorder:  telemetry.MinFlightSlots,
	})
	lis := &tapListener{Verifier: sys.Verifier(), killCount: make(map[int32]int)}
	sys.Kernel().SetListener(lis)
	return &world{
		cfg: cfg, s: s, sys: sys, k: sys.Kernel(), v: sys.Verifier(), lis: lis,
		procs: make(map[string]*wproc),
	}
}

// teardown drives every in-flight goroutine to completion (parked lifecycle
// tasks are stepped out, blocked gates killed and awaited, every source
// closed, which ends its drain) and uninstalls the scheduler; the System,
// never shut down, goes with the world. Best-effort: a goroutine that
// cannot be released is exactly the liveness bug the checker reports
// through other channels.
func (w *world) teardown() {
	for _, name := range w.order {
		p := w.procs[name]
		for i := 0; i < 8 && p.task != nil && !p.task.Done(); i++ {
			if ev := w.s.Step(p.task); ev.Kind == dsched.EventDone {
				break
			}
		}
	}
	for _, name := range w.order {
		p := w.procs[name]
		if p.gateBlocked && p.gate != nil && !p.gate.Done() {
			w.k.Kill(p.pid, "verify: world teardown")
			w.s.Await(p.gate, w.cfg.AwaitTimeout)
		}
	}
	for _, name := range w.order {
		w.procs[name].src.close()
	}
	dsched.Uninstall()
}

// procNames supplies deterministic process names in creation order.
var procNames = []string{"A", "B", "C", "D", "E", "F"}

func (w *world) nextName() string {
	if len(w.order) < len(procNames) {
		return procNames[len(w.order)]
	}
	return fmt.Sprintf("P%d", len(w.order))
}

// ridden reports whether a process other than owner still rides owner's
// source: its channel stays mapped, so owner cannot close it by exiting.
func (w *world) ridden(owner *wproc) bool {
	for _, name := range w.order {
		if p := w.procs[name]; p != owner && p.src == owner.src && p.phase != phaseExited {
			return true
		}
	}
	return false
}

// enabled enumerates the transitions applicable in the current state, in a
// fixed deterministic order (process creation order, fixed family order).
func (w *world) enabled() []string {
	var en []string
	if len(w.order) < w.cfg.Procs {
		en = append(en, "launch:"+w.nextName())
	}
	for _, name := range w.order {
		p := w.procs[name]
		switch p.phase {
		case phaseWindow:
			en = append(en, "visible:"+name)
		case phaseExitWindow:
			en = append(en, "exitdone:"+name)
		}
		threadFree := p.gate == nil && p.task == nil
		if (p.phase == phaseWindow || p.phase == phaseLive) && !p.killed &&
			p.sends < w.cfg.MaxSends && p.gate == nil {
			en = append(en, "send:"+name)
		}
		// Admit attaches a launched process's source only once it is visible.
		if len(p.queue) > 0 && p.phase != phaseExited && !p.severed && !p.src.closed &&
			!(p.launched() && p.phase == phaseWindow) {
			en = append(en, "deliver:"+name)
			if w.cfg.Reorder && len(p.queue) > 1 {
				en = append(en, "deliver:"+name+"@1")
			}
		}
		if p.phase == phaseLive && threadFree && !p.killed && !p.severed &&
			p.gatesDone < w.cfg.MaxGates {
			en = append(en, "gate:"+name)
		}
		if w.cfg.Expire && p.gateBlocked && w.s.TimerArmed(p.pid) {
			en = append(en, "expire:"+name)
		}
		if w.cfg.Kill && (p.phase == phaseWindow || p.phase == phaseLive) && !p.killed {
			en = append(en, "kill:"+name)
		}
		if w.cfg.Exit && p.phase == phaseLive && threadFree && !p.severed &&
			len(p.queue) == 0 && !(p.launched() && w.ridden(p)) {
			en = append(en, "exit:"+name)
		}
		if w.cfg.Poison && p.phase == phaseLive && !p.killed {
			en = append(en, "poison:"+name)
		}
		if w.cfg.Fork && p.phase == phaseLive && threadFree && !p.killed &&
			len(w.order) < w.cfg.Procs {
			en = append(en, "fork:"+name+">"+w.nextName())
		}
		if w.cfg.Conn && !p.killed && (p.phase == phaseWindow || p.phase == phaseLive) {
			if !p.severed && p.severs < w.cfg.MaxSevers {
				en = append(en, "disconnect:"+name)
			}
			if p.severed {
				en = append(en, "connect:"+name, "lease-expire:"+name)
			}
		}
	}
	return en
}

// apply executes one enabled transition (Replay checks that it is). It
// returns a Violation when the transition itself trips an invariant
// (gate-pass checks, liveness) or finds the code's yield points moved.
func (w *world) apply(tr string) *Violation {
	op, arg, _ := strings.Cut(tr, ":")
	switch op {
	case "launch":
		return w.applyLaunch(arg)
	case "fork":
		parent, child, _ := strings.Cut(arg, ">")
		return w.applyFork(w.procs[parent], child)
	}
	name, idx, _ := strings.Cut(arg, "@")
	p := w.procs[name]
	switch op {
	case "visible":
		return w.applyVisible(p)
	case "send":
		p.queue = append(p.queue, ipc.Message{Op: ipc.OpCounterInc, PID: p.pid, Arg1: 1, Seq: p.nextSeq})
		p.nextSeq++
		p.sends++
	case "deliver":
		i, _ := strconv.Atoi(idx)
		return w.applyDeliver(p, i)
	case "gate":
		return w.applyGate(p)
	case "poison":
		return w.applyPoison(p)
	case "expire":
		return w.applyExpire(p)
	case "kill":
		return w.killAwait(p, "verify: external kill")
	case "exit":
		return w.applyExit(p)
	case "exitdone":
		if v := w.runOut(p.task, "exit of "+name); v != nil {
			return v
		}
		p.task, p.phase = nil, phaseExited
	case "disconnect":
		p.severed = true
		p.severs++
		if w.cfg.UnsafeSeverDrop && len(p.queue) > 0 {
			// The modeled bug: a resume protocol that trims its replay
			// buffer on write rather than on cumulative ack loses the
			// oldest unforwarded frame with the connection. expectValidated
			// is NOT decremented — the loss is the client's fault in this
			// model, and the invariant that notices is the counter gap on
			// resume.
			p.queue = p.queue[1:]
		}
	case "connect":
		// Resume with replay: the queue (the replay buffer) survived the
		// sever intact, so later delivers carry the same gap-free counter
		// stream the daemon acked up to.
		p.severed = false
	case "lease-expire":
		// The daemon's lease scanner fires for a severed session that never
		// resumed: a fail-closed kill with the canonical reason, which must
		// also release a gate still blocked on the dead connection.
		return w.killAwait(p, kernel.ReasonLeaseExpired)
	}
	return nil
}

// stepTo steps a lifecycle task and demands that it park at point: anything
// else means the code's yield points moved under the model.
func (w *world) stepTo(t *dsched.Task, point dsched.Point, what string) (dsched.Event, *Violation) {
	ev := w.s.Step(t)
	if ev.Kind != dsched.EventParked || ev.Point != point {
		return ev, &Violation{Invariant: InvModel,
			Detail: fmt.Sprintf("%s parked at %v, want %s", what, ev, point)}
	}
	return ev, nil
}

// runOut steps a lifecycle task through any remaining yield points until it
// completes. Bounded: a task still parked after the bound is a model
// desynchronization, not a protocol state worth exploring.
func (w *world) runOut(t *dsched.Task, what string) *Violation {
	for i := 0; i < 8; i++ {
		ev := w.s.Step(t)
		switch {
		case ev.Kind == dsched.EventDone && t.Err() != nil:
			return &Violation{Invariant: InvModel, Detail: fmt.Sprintf("%s failed: %v", what, t.Err())}
		case ev.Kind == dsched.EventDone:
			return nil
		case ev.Kind != dsched.EventParked:
			return &Violation{Invariant: InvModel,
				Detail: fmt.Sprintf("%s emitted %v while running out", what, ev)}
		}
	}
	return &Violation{Invariant: InvModel,
		Detail: fmt.Sprintf("%s still parked after 8 steps", what)}
}

// applyLaunch admits a new process with its own source, the way every
// monitored program enters a System: the task runs Admit through its
// admission yield and parks in Register's window, whose pid it reports.
func (w *world) applyLaunch(name string) *Violation {
	p := &wproc{name: name, nextSeq: 1, phase: phaseWindow, src: newSource(name)}
	sys := w.sys
	p.task = w.s.Go("launch:"+name, 0, func() (err error) {
		p.proc, err = sys.Admit(p.src)
		return err
	})
	if _, v := w.stepTo(p.task, dsched.PointLaunchAdmitted, "launch of "+name); v != nil {
		return v
	}
	return w.parkedInWindow(p, dsched.PointRegisterVisible, "launch of "+name)
}

// applyFork forks a child of a live process, parked in Fork's registration
// window — the one window a delivery can reach, since the child's messages
// ride its parent's already attached source.
func (w *world) applyFork(pp *wproc, child string) *Violation {
	ppid, k := pp.pid, w.k
	cp := &wproc{name: child, nextSeq: 1, phase: phaseWindow, src: pp.src}
	cp.task = w.s.Go("fork:"+pp.name, 0, func() error {
		_, err := k.Fork(ppid)
		return err
	})
	return w.parkedInWindow(cp, dsched.PointForkVisible, "fork "+pp.name+">"+child)
}

// parkedInWindow steps a registering process's task to point and enters the
// process in the model under the pid the point reports.
func (w *world) parkedInWindow(p *wproc, point dsched.Point, what string) *Violation {
	ev, v := w.stepTo(p.task, point, what)
	if v != nil {
		return v
	}
	p.pid = ev.PID
	w.procs[p.name] = p
	w.order = append(w.order, p.name)
	return nil
}

func (w *world) applyVisible(p *wproc) *Violation {
	// The tail of registration may park again (e.g. a kill buffered in the
	// registration window yields at kill-notify); run it out — the interleaving of interest
	// was the window itself, already explored via the other transitions. A
	// launched process's Admit attaches its source on the way out.
	if v := w.runOut(p.task, "registration of "+p.name); v != nil {
		return v
	}
	p.task, p.phase = nil, phaseLive
	w.syncModelKills()
	return nil
}

// applyDeliver hands one queued message to the drain reading the process's
// source, which evaluates it and makes its gate calls before it returns.
func (w *world) applyDeliver(p *wproc, idx int) *Violation {
	p.reordered = p.reordered || idx > 0
	m := p.queue[idx]
	p.queue = append(p.queue[:idx], p.queue[idx+1:]...)
	if !p.killed {
		p.expectValidated++
	}
	p.src.deliver(m)
	return w.awaitWakes()
}

// applyPoison poisons p's verifier context as a contained delivery-path panic
// would, and checks that the poison was the process's fate alone: p is
// killed, and every process that was not killed before still is not — its
// later messages validated and its gates passing, which the global
// invariants go on to check.
func (w *world) applyPoison(p *wproc) *Violation {
	killedBefore := make(map[string]bool, len(w.order))
	for _, name := range w.order {
		killedBefore[name] = w.procs[name].killed
	}
	w.v.PoisonProcess(p.pid, "verify: "+p.name+" poisoned")
	if v := w.awaitWakes(); v != nil {
		return v
	}
	if !p.killed {
		return &Violation{Invariant: InvPoison,
			Detail: fmt.Sprintf("poisoned process %s was not killed", p.name)}
	}
	for _, name := range w.order {
		if q := w.procs[name]; q != p && q.killed && !killedBefore[name] {
			return &Violation{Invariant: InvPoison,
				Detail: fmt.Sprintf("poisoning %s killed %s too", p.name, name)}
		}
	}
	return nil
}

func (w *world) applyGate(p *wproc) *Violation {
	// The program sends its System-Call message and immediately enters the
	// gated syscall (§3.3). The sync message rides the same queue as data
	// messages — delivery order is a separate transition.
	p.queue = append(p.queue, ipc.Message{Op: ipc.OpSyscall, PID: p.pid, Seq: p.nextSeq})
	p.nextSeq++
	p.wantAtPass = p.nextSeq - 1
	pid, k := p.pid, w.k
	p.gate = w.s.Go("gate:"+p.name, pid, func() error {
		return k.SyscallEnter(pid, 1)
	})
	switch ev := w.s.Step(p.gate); ev.Kind {
	case dsched.EventBlocked:
		p.gateBlocked = true
		return nil
	case dsched.EventDone:
		return w.gateResolved(p)
	default:
		return &Violation{Invariant: InvModel,
			Detail: fmt.Sprintf("gate of %s parked unexpectedly: %v", p.name, ev)}
	}
}

func (w *world) applyExpire(p *wproc) *Violation {
	w.s.FireTimer(p.pid)
	ev, ok := w.s.Await(p.gate, w.cfg.AwaitTimeout)
	switch {
	case !ok:
		return &Violation{Invariant: InvLiveness,
			Detail: fmt.Sprintf("gate of %s emitted nothing after its epoch deadline fired", p.name)}
	case ev.Kind == dsched.EventDone:
		w.syncModelKills()
		return w.gateResolved(p)
	case ev.Kind == dsched.EventBlocked:
		// The deadline broadcast landed and the waiter went back to sleep
		// with no future wake-up — the pre-fix epoch-timer stall.
		return &Violation{Invariant: InvLiveness,
			Detail: fmt.Sprintf("gate of %s re-blocked at its epoch deadline (timer fired, waiter re-waited: stall)", p.name)}
	default:
		return &Violation{Invariant: InvModel,
			Detail: fmt.Sprintf("gate of %s parked after expiry: %v", p.name, ev)}
	}
}

// killAwait issues a kernel kill for p and, when its gate is blocked, awaits
// the woken gate goroutine — fail-closed demands every kill release any gate
// still waiting, whatever the kill's origin (supervisor sweep, lease expiry).
func (w *world) killAwait(p *wproc, reason string) *Violation {
	w.k.Kill(p.pid, reason)
	p.killed = true
	if !p.gateBlocked {
		return nil
	}
	ev, ok := w.s.Await(p.gate, w.cfg.AwaitTimeout)
	switch {
	case !ok:
		return &Violation{Invariant: InvLiveness,
			Detail: fmt.Sprintf("gate of %s not woken by kill", p.name)}
	case ev.Kind == dsched.EventDone:
		return w.gateResolved(p)
	default:
		return &Violation{Invariant: InvLiveness,
			Detail: fmt.Sprintf("gate of killed %s re-blocked: %v", p.name, ev)}
	}
}

// applyExit takes a process to its exit window. A launched process leaves
// the way every admitted one does: its source closes and Proc.Close
// finalizes it, freezing its row at PointProcFinished and tearing the
// kernel context down up to PointExitNotify. A forked child's context is
// the kernel's alone to exit.
func (w *world) applyExit(p *wproc) *Violation {
	what := "exit of " + p.name
	if p.launched() {
		proc := p.proc
		p.src.close()
		p.task = w.s.Go("exit:"+p.name, 0, func() error {
			proc.Close()
			return nil
		})
		if _, v := w.stepTo(p.task, dsched.PointProcFinished, what); v != nil {
			return v
		}
	} else {
		pid, k := p.pid, w.k
		p.task = w.s.Go("exit:"+p.name, 0, func() error {
			k.Exit(pid)
			return nil
		})
	}
	if _, v := w.stepTo(p.task, dsched.PointExitNotify, what); v != nil {
		return v
	}
	p.phase = phaseExitWindow
	return nil
}

// gateResolved consumes a finished gate task: on a pass (nil error), the
// gate invariant and the liveness stamp are checked at the exact instant
// enforcement let the process proceed.
func (w *world) gateResolved(p *wproc) *Violation {
	err := p.gate.Err()
	p.gate = nil
	p.gateBlocked = false
	p.gatesDone++
	w.syncModelKills()
	if err != nil {
		// A failed gate is a kill or an exit, not a pass; the global
		// invariants (exactly-one-kill etc.) cover it.
		return nil
	}
	if got := w.v.Messages(p.pid); got < p.wantAtPass {
		return &Violation{Invariant: InvGate,
			Detail: fmt.Sprintf("process %s passed its gate with %d of %d prior messages validated",
				p.name, got, p.wantAtPass)}
	}
	if st, ok := w.k.Stats(p.pid); !ok || st.LastSyscallUnixNanos == 0 {
		return &Violation{Invariant: InvStamp,
			Detail: fmt.Sprintf("process %s passed its gate without a liveness stamp", p.name)}
	}
	return nil
}

// syncModelKills folds observed kill state into the killed flags of the
// processes not yet exiting: a kernel kill, a kill notification, or a
// verifier context the verifier itself condemned (a kill it issued for a pid
// still in its registration window is buffered by the kernel until the pid
// is visible).
func (w *world) syncModelKills() {
	for _, name := range w.order {
		p := w.procs[name]
		if p.killed || p.phase > phaseLive {
			continue
		}
		if killed, _ := w.k.Killed(p.pid); killed || w.lis.kills(p.pid) > 0 {
			p.killed = true
		} else if vs, ok := w.v.ProcStats(p.pid); ok && vs.Dead {
			p.killed = true
		}
	}
}

// awaitWakes awaits the gate events a delivery or a poison must have
// produced: every blocked gate whose pid the kernel noted sync-ready
// (dsched.PointSyncReady) or that is now killed is awaited and resolved.
// Returning without awaiting would let the next transition race the woken
// goroutine.
func (w *world) awaitWakes() *Violation {
	w.syncModelKills()
	woken := make(map[int32]bool)
	for _, pid := range w.s.TakeSynced() {
		woken[pid] = true
	}
	for _, name := range w.order {
		p := w.procs[name]
		if !p.gateBlocked || p.gate == nil || !(woken[p.pid] || p.killed) {
			continue
		}
		ev, ok := w.s.Await(p.gate, w.cfg.AwaitTimeout)
		if !ok {
			return &Violation{Invariant: InvLiveness,
				Detail: fmt.Sprintf("gate of %s not woken by sync/kill", name)}
		}
		if ev.Kind == dsched.EventDone {
			if v := w.gateResolved(p); v != nil {
				return v
			}
		}
		// Re-blocked: a sync that did not release the gate (e.g. the sync
		// raced a pending violation). Legal; leave it blocked.
	}
	return nil
}

// checkInvariants evaluates the global invariants after a transition.
func (w *world) checkInvariants() *Violation {
	active := 0
	var rows []supervisor.ProcStats
	for _, name := range w.order {
		p := w.procs[name]
		if p.launched() && p.phase != phaseExited {
			active++
		}
		if n := w.lis.kills(p.pid); n > 1 {
			return &Violation{Invariant: InvOneKill,
				Detail: fmt.Sprintf("process %s produced %d kill notifications", name, n)}
		}
		// Churn invariant: a process whose messages the model delivered in
		// order must never die to the counter check — however many times its
		// connection severed and resumed. Only model-driven reorders earn a
		// legitimate CheckSeq kill.
		if !p.reordered {
			if killed, reason := w.k.Killed(p.pid); killed &&
				strings.Contains(reason, "message counter") {
				return &Violation{Invariant: InvChurn,
					Detail: fmt.Sprintf("process %s (never reordered, %d severs) killed by the counter check: %s",
						name, p.severs, reason)}
			}
		}
		if p.phase == phaseExited {
			if _, ok := w.v.ProcStats(p.pid); ok {
				return &Violation{Invariant: InvLeak,
					Detail: fmt.Sprintf("verifier still holds a context for exited process %s", name)}
			}
			if !p.launched() {
				continue
			}
			want := "exited"
			if p.killed {
				want = "killed"
			}
			if rows == nil {
				rows = w.sys.ProcStats()
			}
			if got := rowState(rows, p.pid); got != want {
				return &Violation{Invariant: InvAccounting,
					Detail: fmt.Sprintf("finished process %s has a %q row, want %q", name, got, want)}
			}
			continue
		}
		if !p.killed {
			if got := w.v.Messages(p.pid); got < p.expectValidated {
				return &Violation{Invariant: InvLostMessage,
					Detail: fmt.Sprintf("process %s: %d messages delivered but only %d validated (message silently lost)",
						name, p.expectValidated, got)}
			}
		}
	}
	if got := w.sys.Health().ActiveProcs; got != active {
		return &Violation{Invariant: InvAccounting,
			Detail: fmt.Sprintf("supervisor counts %d active processes, the model %d admitted and not finished", got, active)}
	}
	return nil
}

// step applies tr and then checks the global invariants.
func (w *world) step(tr string) *Violation {
	if v := w.apply(tr); v != nil {
		return v
	}
	return w.checkInvariants()
}

// rowState is the State of pid's row in rows, empty when it has none.
func rowState(rows []supervisor.ProcStats, pid int32) string {
	for _, r := range rows {
		if r.PID == pid {
			return r.State
		}
	}
	return ""
}

// fingerprint canonicalizes the world state for the DFS seen-set. It reads
// both model bookkeeping and real kernel/verifier state, so two schedules
// that converge to the same protocol state — regardless of how they got
// there — are explored once.
func (w *world) fingerprint() (fp [16]byte) {
	// Appended by hand, not with fmt: every explored state is fingerprinted.
	bo := strconv.AppendBool
	u := func(b []byte, v uint64) []byte { return strconv.AppendUint(b, v, 10) }
	b := w.fpBuf[:0]
	for _, name := range w.order {
		p := w.procs[name]
		b = append(append(append(append(b, name...), '<'), p.src.owner...), "|ph"...)
		b = strconv.AppendInt(b, int64(p.phase), 10)
		b = bo(append(b, "|k"...), p.killed)
		b = bo(append(b, "|sr"...), w.k.SyncReady(p.pid))
		b = bo(append(b, "|gb"...), p.gateBlocked)
		b = strconv.AppendInt(append(b, "|gd"...), int64(p.gatesDone), 10)
		b = u(append(b, "|sq"...), p.nextSeq)
		b = u(append(b, "|ev"...), p.expectValidated)
		b = u(append(b, "|vm"...), w.v.Messages(p.pid))
		b = bo(append(b, "|sv"...), p.severed)
		b = strconv.AppendInt(append(b, "|sn"...), int64(p.severs), 10)
		b = append(bo(append(b, "|ro"...), p.reordered), "|q"...)
		for _, m := range p.queue {
			b = append(u(append(u(b, uint64(m.Op)), '.'), m.Seq), ',')
		}
		b = append(b, ';')
	}
	w.fpBuf = b
	h := fnv.New128a()
	h.Write(b)
	h.Sum(fp[:0])
	return fp
}
