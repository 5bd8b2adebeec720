// Package verify is a small-scope model checker for the HerQules gate
// protocol: it exhaustively enumerates interleavings of process lifecycle
// events — launch, fork, exit, explicit kill, epoch expiry, poison,
// message delivery (optionally reordered), connection sever/resume/lease
// expiry — against the production lifecycle itself, driven deterministically
// through the internal/dsched schedule hooks. Each world is one
// supervisor.System: a process enters by System.Admit with a source the
// checker feeds, its messages reach the policies only through the real pump
// drain, and it leaves by Proc.Close. The checker asserts the paper's core
// invariants in every reachable state:
//
//   - gate invariant (§2.2/§3.3): no process passes a syscall gate before
//     every message it sent prior to that gate has been validated;
//   - no-lost-message: a message delivered for a live, healthy process is
//     always evaluated (a silently ignored message is how the gate
//     invariant dies without ever looking violated);
//   - exactly-one-kill: a killed process produces exactly one
//     KillListener notification, never zero, never two;
//   - poison-kills-one: poisoning a process's verifier context (a contained
//     delivery-path panic) kills that process and no other, whose messages
//     are still validated and whose gates still pass;
//   - no-leaked-context: once a process has exited, the verifier holds no
//     policy context for it;
//   - gate liveness: a gate whose epoch deadline fires resolves — it is
//     killed (fail-closed) or resumed, never stalled forever;
//   - no-churn-counter-kill: connection churn (sever, resume, lease
//     expiry) never trips the §3.1.1 counter check for a process whose
//     messages the model did not itself reorder — a correct resume
//     protocol replays a gap-free stream;
//   - supervisor accounting: Health().ActiveProcs counts exactly the
//     admitted, not yet finished processes, and a finished process's frozen
//     row says killed exactly when the model saw it killed.
//
// The checker is stateless in the Godefroid sense: no world is ever rewound;
// a node's successors are reached by replaying its transition prefix into a
// fresh world (fresh System + scheduler), so there is no undo logic to
// trust. A seen-set over hashed state fingerprints prunes converging
// interleavings. On violation the failing schedule is minimized by greedy
// delta-debugging and reported in a form Replay accepts verbatim — see
// DESIGN.md "Checking the gate invariant" for how to re-run one.
//
// The small-scope hypothesis (Sotoudeh & Yedidia; the zeonica verify
// harness) is the design bet: protocol bugs in this plane show up with 2–3
// processes or not at all.
package verify

import (
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// Config bounds the explored scope. The zero value is NOT useful — use
// Defaults() or a scenario from Scenarios() — but any field left zero is
// filled with its default.
type Config struct {
	// Procs is the maximum number of processes alive over a run (launches
	// plus forks). Default 2; the full exploration uses 3.
	Procs int
	// MaxSends bounds the non-sync messages each process may send. Default 1.
	MaxSends int
	// MaxGates bounds the gate (syscall) attempts per process. Default 1.
	MaxGates int

	// Transition families. Launch, visibility, send, deliver and gate are
	// always enabled; these opt the rest in.
	Fork    bool // fork a live process (children count toward Procs)
	Exit    bool // voluntary exit (requires a drained queue, as the supervisor guarantees)
	Kill    bool // external kill (supervisor shutdown sweep)
	Expire  bool // fire the epoch timer of a blocked gate at exactly its deadline
	Poison  bool // poison a live process's verifier context (contained delivery panic)
	Reorder bool // deliver the second pending message before the first

	// CheckSeq mirrors verifier.CheckSeq (§3.1.1 counter verification).
	// With Reorder on and CheckSeq off, the gate invariant is violated by
	// design — the configuration used to prove the checker can fail.
	CheckSeq bool

	// Conn enables the connection-churn transitions of the networked
	// attestation plane: disconnect (sever a session's transport
	// mid-stream), connect (resume with replay from the preserved buffer),
	// and lease-expire (the daemon's fail-closed kill of a severed session
	// that never resumes). MaxSevers bounds disconnects per process
	// (default 1).
	Conn      bool
	MaxSevers int

	// UnsafeSeverDrop models a broken resume protocol that trims its replay
	// buffer on write instead of on cumulative ack: a sever drops the
	// oldest unforwarded frame, so the resumed stream carries a counter gap
	// and CheckSeq kills an honest process. The knob exists to prove the
	// churn scope can catch exactly this bug class.
	UnsafeSeverDrop bool

	// UnsafeLateNotify / UnsafeEpochTimer install the scheduler with
	// dsched.RevertLateNotify / dsched.RevertEpochTimer, reopening a fixed
	// kernel race so the checker can show it still catches it.
	UnsafeLateNotify bool
	UnsafeEpochTimer bool

	// MaxDepth bounds schedule length (default 24). MaxStates bounds unique
	// explored states (default 200000). Hitting either sets
	// Result.Truncated. MaxViolations stops the search after that many
	// violations (default 1 — the first minimal counterexample is the
	// useful one).
	MaxDepth      int
	MaxStates     int
	MaxViolations int

	// AwaitTimeout is the real-time bound on waiting for a woken goroutine
	// to emit its next event; exceeding it is itself reported as a lost
	// wake-up. Default 2s.
	AwaitTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = 2
	}
	if c.MaxSends <= 0 {
		c.MaxSends = 1
	}
	if c.MaxGates <= 0 {
		c.MaxGates = 1
	}
	if c.MaxSevers <= 0 {
		c.MaxSevers = 1
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 24
	}
	if c.MaxStates <= 0 {
		c.MaxStates = 200000
	}
	if c.MaxViolations <= 0 {
		c.MaxViolations = 1
	}
	if c.AwaitTimeout <= 0 {
		c.AwaitTimeout = 2 * time.Second
	}
	return c
}

// Defaults is the base 2-process scope with every transition family
// enabled and CheckSeq on — the configuration `hqbench -exp verify` runs.
// MaxDepth 28 (not the generic 24) is the measured closure depth once the
// connection-churn family is in: longest schedules run launch, visibility,
// sends, gate, delivers, a sever and a resume for both processes.
func Defaults() Config {
	return Config{
		Fork: true, Exit: true, Kill: true, Expire: true, Poison: true,
		Reorder: true, CheckSeq: true, Conn: true, MaxDepth: 28,
	}.withDefaults()
}

// Detector is one fixed bug the checker must still catch: a scope with the
// fix reverted (or its mitigating feature off) and the invariant its first
// violation must name.
type Detector struct {
	Name      string
	Config    Config
	Invariant string
}

// Detectors lists the checks that prove the checker can fail, one per fixed
// bug. A launched process's source attaches only once Admit has registered
// it, so the late-notify window is reachable only through fork.
func Detectors() []Detector {
	return []Detector{
		{"fork notify-after-visible", Config{UnsafeLateNotify: true, Fork: true, CheckSeq: true,
			MaxDepth: 8, MaxStates: 2000}, InvLostMessage},
		{"epoch watchdog armed-once + strict After", Config{Expire: true, UnsafeEpochTimer: true,
			CheckSeq: true, MaxDepth: 8, MaxStates: 2000}, InvLiveness},
		{"message reorder without CheckSeq", Config{Reorder: true, CheckSeq: false,
			MaxDepth: 12, MaxStates: 4000}, InvGate},
		{"resume replay trimmed on write, not on ack", Config{Conn: true, UnsafeSeverDrop: true,
			CheckSeq: true, MaxSends: 2, MaxDepth: 10, MaxStates: 4000}, InvChurn},
	}
}

// Invariant names reported in Violation.Invariant.
const (
	InvGate        = "gate-invariant"        // gate passed before prior messages validated
	InvLostMessage = "no-lost-message"       // delivered message silently ignored
	InvOneKill     = "exactly-one-kill"      // 0 or 2+ kill notifications for one kill
	InvPoison      = "poison-kills-one"      // a poison spared its process or killed another
	InvLeak        = "no-leaked-context"     // verifier context survives exit
	InvLiveness    = "gate-liveness"         // gate stalled past its epoch deadline
	InvStamp       = "liveness-stamp"        // gate passed without stamping LastSyscall
	InvChurn       = "no-churn-counter-kill" // connection churn alone tripped CheckSeq
	InvAccounting  = "supervisor-accounting" // Health or a frozen row disagrees with the model
	InvModel       = "model"                 // the harness itself lost sync with the code
)

// Violation is one invariant failure, carrying the minimized schedule that
// reproduces it from an empty world.
type Violation struct {
	Invariant string
	Detail    string
	Schedule  []string
}

func (v *Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant %s violated: %s\n", v.Invariant, v.Detail)
	b.WriteString("replayable schedule (verify.Replay):\n")
	for i, t := range v.Schedule {
		fmt.Fprintf(&b, "  %2d. %s\n", i+1, t)
	}
	return b.String()
}

// Result summarizes one exploration.
type Result struct {
	StatesExplored     int
	TransitionsApplied int
	Truncated          bool
	Violations         []*Violation
}

// Clean reports whether the exploration finished with no violations.
func (r *Result) Clean() bool { return len(r.Violations) == 0 }

func (r *Result) String() string {
	var b strings.Builder
	status := "CLEAN"
	if !r.Clean() {
		status = fmt.Sprintf("%d VIOLATION(S)", len(r.Violations))
	}
	fmt.Fprintf(&b, "verify: %s — %d states, %d transitions", status, r.StatesExplored, r.TransitionsApplied)
	if r.Truncated {
		b.WriteString(" (truncated by depth/state bound)")
	}
	b.WriteByte('\n')
	for _, v := range r.Violations {
		b.WriteString(v.String())
	}
	return b.String()
}

// Check explores the configured scope exhaustively (up to the bounds) and
// returns what it found. Violating schedules are minimized before being
// reported.
func Check(cfg Config) *Result {
	// Every replayed schedule builds a System and throws it away, so the
	// exploration allocates gigabytes while holding a few MiB live: at the
	// default GOGC the collector runs every few MiB. A larger target costs a
	// few MiB of heap and saves most of those cycles.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	cfg = cfg.withDefaults()
	c := &checker{cfg: cfg, seen: make(map[[16]byte]struct{}), res: &Result{}}
	c.explore(nil, newWorld(cfg))
	return c.res
}

// Replay applies schedule to a fresh world under cfg and returns the first
// violation encountered (nil if the schedule runs clean). An error means the
// schedule itself is invalid — a transition was not enabled when its turn
// came — which distinguishes a stale schedule from a healthy protocol.
func Replay(cfg Config, schedule []string) (*Violation, error) {
	cfg = cfg.withDefaults()
	w := newWorld(cfg)
	defer w.teardown()
	for i, tr := range schedule {
		if !slices.Contains(w.enabled(), tr) {
			return nil, fmt.Errorf("verify: schedule step %d (%s): not enabled", i+1, tr)
		}
		if viol := w.step(tr); viol != nil {
			viol.Schedule = append([]string(nil), schedule[:i+1]...)
			return viol, nil
		}
	}
	return nil, nil
}

type checker struct {
	cfg  Config
	seen map[[16]byte]struct{}
	res  *Result
}

func (c *checker) stopped() bool {
	return len(c.res.Violations) >= c.cfg.MaxViolations ||
		c.res.StatesExplored >= c.cfg.MaxStates
}

// explore is the stateless DFS over the node w has been driven to by
// prefix; it owns w. Each successor is one transition applied to a world at
// the node: w itself for the first, a fresh world the prefix is replayed
// into for every other one. A successor not seen before is explored with the
// world that reached it. Replay is the only state-restoration mechanism, so
// there is no undo code whose correctness the checker would itself depend
// on.
func (c *checker) explore(prefix []string, w *world) {
	var enabled []string
	if len(prefix) < c.cfg.MaxDepth {
		enabled = w.enabled()
	} else {
		c.res.Truncated = true
	}
	for _, tr := range enabled {
		if c.stopped() {
			break
		}
		if w == nil {
			if w = c.replay(prefix); w == nil {
				return
			}
		}
		child := w
		w = nil
		next := append(prefix[:len(prefix):len(prefix)], tr)
		viol := child.step(tr)
		c.res.TransitionsApplied++
		if viol != nil {
			child.teardown()
			c.report(viol, next)
			continue
		}
		fp := child.fingerprint()
		if _, dup := c.seen[fp]; dup {
			child.teardown()
			continue
		}
		c.seen[fp] = struct{}{}
		c.res.StatesExplored++
		c.explore(next, child)
	}
	if w != nil {
		w.teardown()
	}
}

// replay drives a fresh world through prefix, which the exploration has
// already run clean: a violation on the way means nondeterminism leaked
// into the harness.
func (c *checker) replay(prefix []string) *world {
	w := newWorld(c.cfg)
	for _, tr := range prefix {
		if v := w.apply(tr); v != nil {
			w.teardown()
			c.report(&Violation{Invariant: InvModel,
				Detail: fmt.Sprintf("prefix replay diverged at %q: %s", tr, v.Detail)}, prefix)
			return nil
		}
	}
	return w
}

func (c *checker) report(v *Violation, schedule []string) {
	v.Schedule = minimize(c.cfg, schedule, v.Invariant)
	c.res.Violations = append(c.res.Violations, v)
}

// minimize greedily delta-debugs a violating schedule: repeatedly drop any
// single transition whose removal still reproduces a violation of the same
// invariant, until no single removal does. The result is 1-minimal — every
// remaining transition is necessary.
func minimize(cfg Config, schedule []string, invariant string) []string {
	sched := append([]string(nil), schedule...)
	for changed := true; changed; {
		changed = false
		for i := range sched {
			cand := make([]string, 0, len(sched)-1)
			cand = append(cand, sched[:i]...)
			cand = append(cand, sched[i+1:]...)
			if reproduces(cfg, cand, invariant) {
				sched = cand
				changed = true
				break
			}
		}
	}
	return sched
}

func reproduces(cfg Config, schedule []string, invariant string) bool {
	v, err := Replay(cfg, schedule)
	return err == nil && v != nil && v.Invariant == invariant
}
