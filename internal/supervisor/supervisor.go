// Package supervisor is the resident HerQules runtime: one kernel module,
// one verifier and one shared telemetry registry serving *many*
// concurrently monitored programs — the deployment model of the paper's
// Figure 1, where a single trusted verifier process multiplexes every
// application that has enabled HerQules.
//
// A System is long-lived: programs Launch into it, run concurrently (each
// with its own AppendWrite channel drained by a shared verifier.PumpSet),
// and exit independently; Shutdown returns once every channel's drain has
// delivered what it read. This is the configuration under which CFI
// enforcement overheads are actually compared in the literature (Burow et
// al.; de Clercq & Verbauwhede): one enforcement domain amortized across the
// machine's workload, not one per process.
//
// Run is the one-process convenience over a throwaway System; the public
// facade surfaces this package as herqules.System and herqules.Run.
package supervisor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"herqules/internal/compiler"
	"herqules/internal/dsched"
	"herqules/internal/fpga"
	"herqules/internal/ipc"
	"herqules/internal/kernel"
	"herqules/internal/mem"
	"herqules/internal/policy"
	"herqules/internal/sim"
	"herqules/internal/telemetry"
	"herqules/internal/uarch"
	"herqules/internal/verifier"
	"herqules/internal/vm"
)

// ErrShutdown is returned by Admit and Launch once Shutdown has begun.
var ErrShutdown = errors.New("supervisor: system is shut down")

// Config parameterizes a System. The zero value is usable: default policy
// set, kills disabled (the paper's measurement default), shared-memory ring
// transport, a metrics registry of the System's own and a flight ring of
// telemetry.DefaultFlightSlots per process.
type Config struct {
	// Policies builds the verifier policy set per monitored process; nil
	// installs the registry default set, policy.DefaultSet (currently
	// cfi + memsafety + counter + dfi). Construct registry-backed factories
	// with policy.SetFactory("cfi", "hmac", ...).
	Policies verifier.PolicyFactory

	// KillOnViolation controls the verifier (§3.4). The paper disables it
	// for performance/correctness runs because baseline designs
	// false-positive (§5).
	KillOnViolation bool

	// CheckSeq enables per-process message-counter verification (§3.1.1):
	// a sequence gap, duplicate or replay in a process's stream is a policy
	// violation. Off by default to match the measurement configuration;
	// enforcement and chaos runs turn it on.
	CheckSeq bool

	// Metrics is the registry the kernel gate, the verifier and the
	// networked plane count into; nil gives the System one of its own. It
	// chooses which registry, not whether there is one: Stats diffs it to the
	// System's lifetime, so several Systems (or a System and unrelated
	// instruments) may share one.
	Metrics *telemetry.Metrics

	// ChannelKind selects the AppendWrite transport Launch constructs for a
	// process that does not bring its own channel. The zero value is the
	// shared-memory ring.
	ChannelKind ipc.Kind

	// Shards is unread, kept only for the frozen bench/; delete when ROADMAP
	// item 3 thaws it.
	Shards int

	// Epoch overrides the kernel synchronization timeout (0 keeps
	// kernel.DefaultEpoch).
	Epoch time.Duration

	// Degraded selects the kernel's epoch-expiry behaviour when validation
	// stops making progress (a poisoned verifier context, a silent
	// channel). The zero value is kernel.DegradedFailClosed: the stalled
	// process is killed at the deadline. kernel.DegradedLogOnly records the
	// bypass and lets the call through — measurement runs only.
	Degraded kernel.DegradedPolicy

	// FlightRecorder sizes each process's flight ring, in slots (rounded up
	// to a power of two; <= 0 selects telemetry.DefaultFlightSlots): the
	// verifier stamps every delivered message's policy-chain outcome, the
	// kernel stamps gate, epoch and lease lifecycle events, and a kill
	// freezes the ring into a ForensicReport served by System.Forensics and
	// the /violations endpoint.
	FlightRecorder int
}

// DefaultPolicies installs the standard policy set, resolved through the
// policy registry (policy.DefaultSet).
func DefaultPolicies() []policy.Policy {
	return policy.MustSet(policy.DefaultSet...)
}

// Outcome is the result of one monitored execution under a System.
type Outcome struct {
	*vm.Result
	// PolicyViolations are the verifier-side violations recorded for the
	// process (empty when it was killed on the first one).
	PolicyViolations []*policy.Violation
	// MessagesProcessed counts verifier-side deliveries.
	MessagesProcessed uint64
	// Entries / MaxEntries are the verifier metadata sizes (§5.4).
	Entries, MaxEntries int
	PID                 int32
}

// LaunchOptions configures one monitored execution. All fields are
// per-process; system-wide policy lives in Config.
type LaunchOptions struct {
	// Entry is the entry function (default "main"); Args its arguments.
	Entry string
	Args  []uint64

	// Channel, when non-nil, is the process's AppendWrite transport. When
	// nil (and Inline is false) the System constructs a fresh channel of
	// its configured ChannelKind.
	//
	// Launch takes ownership of the channel unconditionally: the System
	// closes it when the process finishes emitting (closing is how the
	// pump learns the source is done), and also on every Launch failure
	// path. Callers must not reuse a channel after passing it to Launch.
	Channel *ipc.Channel

	// Inline selects deterministic inline delivery: messages are evaluated
	// by the (shared) verifier at send time on the program's goroutine, the
	// mode the reproducibility experiments need. No channel is involved:
	// Launch refuses (and closes) a Channel passed with Inline.
	Inline bool

	// Cost is the cycle model (nil: no accounting).
	Cost *sim.CostModel

	// ContinueChecks makes in-process checks (Clang-CFI, CCFI) record and
	// continue rather than trap — the §5 performance methodology.
	ContinueChecks bool

	// MaxInstructions bounds execution (0: vm default).
	MaxInstructions uint64

	// Seed randomizes information-hiding layout.
	Seed uint64
}

// System is the resident runtime: one kernel, one verifier, one
// multi-source pump, N concurrently monitored programs.
type System struct {
	cfg Config
	k   *kernel.Kernel
	v   *verifier.Verifier
	m   *telemetry.Metrics

	pumps *verifier.PumpSet
	base  telemetry.Snapshot // registry state at construction, for Stats

	// keys is the per-process message-authentication keyring, created only
	// when the configured policy set contains a Sealer (the hmac policy):
	// the kernel programs keys at registration and Launch seals each
	// process's sender under its key. Nil otherwise — an unauthenticated
	// system pays zero MAC cost.
	keys *policy.Keyring

	mu       sync.Mutex
	inflight sync.WaitGroup // one per admitted process, released when it is finalized
	launched uint64
	finished uint64
	killed   uint64
	down     bool

	// Per-PID attribution: one record per admitted process, retained after
	// exit (bounded to maxProcRecords finished rows) so a scrape of /procs
	// or /metrics sees every PID of the measured interval, not only the
	// ones that happen to still be running.
	records  map[int32]*procRecord
	doneFIFO []int32 // finished PIDs, oldest first, for bounded retention
}

// maxProcRecords bounds how many *finished* per-PID rows a resident System
// retains; beyond it, the oldest finished records are evicted (running
// processes are never evicted). 4096 rows keep a long-lived system's memory
// bounded while covering any realistic scrape interval.
const maxProcRecords = 4096

// procRecord tracks one admitted process for per-PID attribution. While the
// process runs, stats are assembled live from the verifier context and the
// kernel context; once it finishes, the final row is frozen here (the live
// sources tear their state down on exit).
type procRecord struct {
	pid      int32
	started  int64           // UnixNano at launch
	final    *ProcStats      // frozen at exit; nil while running
	forensic *ForensicReport // kill postmortem, retained past verifier teardown
}

// New constructs a System: kernel and verifier are created once, counting
// into one metrics registry, and wired together over the privileged listener
// channel. Nothing runs until a program launches: a process brings its own
// drain goroutine (verifier.PumpSet.Attach).
func New(cfg Config) *System {
	factory := cfg.Policies
	if factory == nil {
		factory = DefaultPolicies
	}
	// Stats diffs the registry against its state here. A registry made here
	// starts at zero, so only one handed in is read.
	m, base := cfg.Metrics, telemetry.Snapshot{}
	if m == nil {
		m = telemetry.New(0)
	} else {
		base = m.Snapshot()
	}
	k := kernel.NewWithMetrics(nil, m)
	if cfg.Epoch > 0 {
		k.Epoch = cfg.Epoch
	}
	v := verifier.NewWithMetrics(factory, k, m)
	v.KillOnViolation = cfg.KillOnViolation
	v.CheckSeq = cfg.CheckSeq
	k.SetListener(v)
	// The verifier doubles as the kernel's epoch watchdog: at a deadline the
	// kernel asks whether the silent process's context is poisoned,
	// which turns an anonymous epoch expiry into an attributed wedged-verifier
	// kill under the configured degraded policy.
	k.SetWatchdog(v)
	k.SetDegradedPolicy(cfg.Degraded)
	// Size the black boxes before any registration, then point the kernel's
	// lifecycle stamps at the verifier-owned rings. The stamper locks verifier
	// contexts, which the kernel only calls outside its own mutex.
	v.EnableFlightRecorder(cfg.FlightRecorder)
	k.SetFlightStamper(v)
	s := &System{
		cfg:     cfg,
		k:       k,
		v:       v,
		m:       m,
		base:    base,
		records: make(map[int32]*procRecord),
	}
	// Probe one throwaway policy set for a Sealer: a set containing the hmac
	// policy turns on the authenticated-channel machinery (keyring in the
	// kernel, sealing wrapper in Launch, verify-and-strip in the verifier).
	for _, p := range factory() {
		if _, ok := p.(policy.Sealer); ok {
			s.keys = policy.NewKeyring()
			v.SetKeyring(s.keys)
			k.SetKeyring(s.keys)
			break
		}
	}
	s.pumps = v.NewPumpSet()
	return s
}

// Kernel exposes the system's kernel module (for tests and experiments that
// drive syscall gating directly).
func (s *System) Kernel() *kernel.Kernel { return s.k }

// Verifier exposes the system's shared verifier.
func (s *System) Verifier() *verifier.Verifier { return s.v }

// Metrics exposes the registry the system counts into (Config.Metrics, or
// the one New made); the networked plane adds its counters to it.
func (s *System) Metrics() *telemetry.Metrics { return s.m }

// Launch starts ins as a new monitored process: Admit with the process's
// AppendWrite channel (none under inline delivery), programming the
// transport's PID register when it has one, and the program run on its own
// goroutine, which closes the channel and finalizes the process when the
// program returns. It returns immediately with a Proc handle; the outcome is
// collected with Proc.Wait.
func (s *System) Launch(ins *compiler.Instrumented, opts LaunchOptions) (*Proc, error) {
	if opts.Entry == "" {
		opts.Entry = "main"
	}
	if opts.Inline && opts.Channel != nil {
		opts.Channel.Close() // Launch owns the channel on every path
		return nil, errors.New("supervisor: an inline launch takes no channel")
	}
	var ch *ipc.Channel
	var recv ipc.Receiver
	if !opts.Inline {
		ch = opts.Channel
		if ch == nil {
			var err error
			if ch, err = NewChannel(s.cfg.ChannelKind); err != nil {
				return nil, err
			}
		}
		recv = ch.Receiver
	}
	p, err := s.Admit(recv)
	if err != nil {
		if ch != nil {
			ch.Close() // Launch owns the channel on every path
		}
		return nil, err
	}

	// One emit path: the channel's sender, or delivery on the program's own
	// goroutine. Under an authenticated policy set it is sealed under the
	// key the kernel programmed at Register, and the sealer assigns the
	// sequence numbers a channel backend would have, so the hmac policy's
	// stream-position check holds inline too.
	var sender ipc.Sender = ipc.SenderFunc(func(m ipc.Message) error { s.v.Deliver(m); return nil })
	if ch != nil {
		// Transports with a kernel-managed PID register (the FPGA's
		// authenticity mechanism, §3.1.1) must be programmed with the
		// process identity on the context switch; the supervisor plays the
		// kernel here.
		if reg, ok := ch.Sender.(ipc.PIDRegister); ok {
			reg.SetPID(p.PID())
		}
		sender = ch.Sender
	}
	if key, ok := p.Key(); ok {
		sender = ipc.SealSender(sender, key)
	}

	cfg := ins.VMConfig()
	cfg.PID = p.PID()
	cfg.ContinueOnViolation = opts.ContinueChecks
	cfg.Cost = opts.Cost
	cfg.MaxInstructions = opts.MaxInstructions
	cfg.Seed = opts.Seed
	if ins.Design.IsHQ() {
		// Only HQ programs carry synchronization messages; gating a
		// baseline would stall every system call until the epoch.
		cfg.Kernel = s.k
	}
	cfg.Killed = func() (bool, string) { return s.k.Killed(p.PID()) }
	// A failed send is terminal: the VM ends the program with it.
	cfg.Emit = sender.Send

	vp, err := vm.NewProcess(ins.Mod, cfg)
	if err != nil {
		if ch != nil {
			// Closing the channel releases the transport and ends the drain
			// the process holds attached to the pump.
			ch.Close()
		}
		p.abort()
		return nil, fmt.Errorf("supervisor: loading %s: %w", ins.Mod.Name, err)
	}
	// The run claims the process's finalization, so a Close on this handle
	// only waits for it.
	p.once.Do(func() {
		go func() {
			res := vp.Run(opts.Entry, opts.Args...)
			if ch != nil {
				// Done emitting: closing the channel is how the pump learns
				// the source is done (a ring publishes its open group first).
				ch.Close()
			}
			p.finish(res)
		}()
	})
	return p, nil
}

// Shutdown stops the System gracefully: new launches are refused, in-flight
// processes run to completion (their channels drain fully before their
// outcomes are published), and the shared pump closes once every drain has
// delivered what it read. If ctx expires first, every
// process still in the kernel's table is killed — their VM loops observe the
// kill at the next message or system call and terminate — and Shutdown then
// finishes the same drain path, returning the context's error. Shutdown is
// idempotent; concurrent calls all return after the system is fully down.
func (s *System) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.down = true
	s.mu.Unlock()
	// Interleaving point: admission is closed but in-flight work has not been
	// waited for.
	dsched.Yield(dsched.PointShutdownBegin, 0)

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()

	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		// Deadline passed: sweep the process table and kill stragglers so
		// their runs terminate promptly; then wait out the (now bounded)
		// drain.
		for _, pid := range s.k.Pids() {
			s.k.Kill(pid, "supervisor: system shutdown")
		}
		<-done
	}
	s.pumps.Close()
	return err
}

// Run executes one program under a private single-tenant System: stand it
// up, launch ins into it, wait, and tear it down. The experiments, the RIPE
// suite and herqules.Run use it; anything hosting more than one program
// keeps its own System.
func Run(cfg Config, ins *compiler.Instrumented, opts LaunchOptions) (*Outcome, error) {
	sys := New(cfg)
	defer sys.Shutdown(context.Background())
	proc, err := sys.Launch(ins, opts)
	if err != nil {
		return nil, err
	}
	return proc.Wait()
}

// ProcStats.State values.
const (
	stateRunning = "running"
	stateExited  = "exited"
	stateKilled  = "killed"
)

// ProcStats is the supervisor's per-PID attribution row, merging the
// verifier's validation totals and the kernel's syscall-gate figures for one
// monitored process. Rows for finished processes are frozen at exit time. The
// JSON form is the single serialization consumed by both `hqrun -metrics` and
// the /procs endpoint.
type ProcStats struct {
	PID   int32  `json:"pid"`
	State string `json:"state"` // "running", "exited" or "killed"

	// Verifier-side attribution.
	Messages   uint64 `json:"messages"`          // validated deliveries
	Dropped    uint64 `json:"dropped,omitempty"` // dropped after the context died
	Violations uint64 `json:"violations"`        // recorded policy violations
	KillReason string `json:"kill_reason,omitempty"`

	// Kernel-side attribution.
	Syscalls             uint64 `json:"syscalls"`
	SyncStalls           uint64 `json:"sync_stalls"`
	LastSyscallUnixNanos int64  `json:"last_syscall_unix_nanos,omitempty"`

	// StallNs is the per-PID syscall-gate stall distribution (§2.2).
	StallNs telemetry.HistogramSnapshot `json:"syscall_stall_ns"`

	StartedUnixNanos  int64 `json:"started_unix_nanos"`
	FinishedUnixNanos int64 `json:"finished_unix_nanos,omitempty"`
}

// liveProcStats assembles a row for a still-registered process from the live
// sources (verifier context, kernel context). Each source takes its own lock;
// s.mu must NOT be held. rec's identity fields are immutable after Admit, so
// reading them unlocked is safe.
func (s *System) liveProcStats(rec *procRecord) ProcStats {
	ps := ProcStats{PID: rec.pid, State: stateRunning, StartedUnixNanos: rec.started}
	if vs, ok := s.v.ProcStats(rec.pid); ok {
		ps.Messages = vs.Messages
		ps.Dropped = vs.Dropped
		ps.Violations = vs.Violations
	}
	if ks, ok := s.k.Stats(rec.pid); ok {
		ps.Syscalls = ks.Syscalls
		ps.SyncStalls = ks.SyncStalls
		ps.LastSyscallUnixNanos = ks.LastSyscallUnixNanos
		ps.StallNs = ks.StallNs
	}
	if killed, reason := s.k.Killed(rec.pid); killed {
		ps.State, ps.KillReason = stateKilled, reason
	}
	return ps
}

// ProcStats returns one attribution row per launched process — running ones
// assembled live, finished ones as frozen at exit (bounded retention) —
// ascending by PID. The rows are not a consistent cut across sources: each
// underlying lock is taken separately, the same trade the kernel and
// verifier listings already make.
func (s *System) ProcStats() []ProcStats {
	s.mu.Lock()
	rows := make([]ProcStats, 0, len(s.records))
	var live []*procRecord
	for _, r := range s.records {
		if r.final != nil {
			rows = append(rows, *r.final)
		} else {
			live = append(live, r)
		}
	}
	s.mu.Unlock()
	for _, r := range live {
		rows = append(rows, s.liveProcStats(r))
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].PID < rows[j].PID })
	return rows
}

// Health is the liveness summary served by the /healthz endpoint: whether
// the system still accepts launches, and the moving parts a stuck system
// would show as wedged (attached pump sources that never drain, processes
// that never finish).
type Health struct {
	Up          bool `json:"up"`           // accepting launches (Shutdown not begun)
	ActiveProcs int  `json:"active_procs"` // admitted and not yet finished
	PumpSources int  `json:"pump_sources"` // channels currently attached and draining

	// Poisoned counts the processes whose verifier contexts contained
	// delivery-path panics have poisoned since start: each was killed
	// fail-closed, no other process with it. Non-zero means the system is
	// degraded — the verifier hit a bug in its own delivery path — and
	// /healthz reports 503.
	Poisoned int `json:"poisoned"`
	// DegradedPolicy names the kernel's epoch-expiry policy ("fail-closed"
	// or "log-only").
	DegradedPolicy string `json:"degraded_policy"`
}

// Degraded reports whether the verifier has hit a bug in its own delivery
// path (any poisoned process context).
func (h Health) Degraded() bool { return h.Poisoned > 0 }

// Health reports the system's liveness summary.
func (s *System) Health() Health {
	s.mu.Lock()
	up := !s.down
	active := int(s.launched - s.finished)
	s.mu.Unlock()
	poisoned := s.v.Poisoned() - int(s.base.Counters["verifier.poisoned"].Total)
	return Health{
		Up:             up,
		ActiveProcs:    active,
		PumpSources:    s.pumps.Sources(),
		Poisoned:       poisoned,
		DegradedPolicy: s.k.DegradedMode().String(),
	}
}

// Stats is the per-system aggregate: process lifecycle totals, the shared
// verifier's message total, per-PID attribution rows, and a telemetry
// snapshot diffed against the registry state at construction, so one
// registry can serve several systems (or a system plus unrelated
// instrumentation) and each still reports exactly its own interval.
type Stats struct {
	Launched, Active, Finished, Killed uint64
	// MessagesVerified is Snapshot's verifier.MessagesVerified count.
	MessagesVerified uint64
	Procs            []ProcStats
	Snapshot         telemetry.Snapshot

	// ViolationsByPolicy counts recorded violations keyed by the attributed
	// policy name (Violation.Policy) — the source of the
	// herqules_violations_total{policy=...} exposition.
	ViolationsByPolicy map[string]uint64
}

// statsHist is the compact histogram form Stats.MarshalJSON emits: the
// figures a consumer of `hqrun -metrics` or /procs actually reads, rather
// than the raw 65-bucket arrays (the full-fidelity exposition lives on
// /metrics).
type statsHist struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	Max   uint64  `json:"max"`
}

func compactHist(h telemetry.HistogramSnapshot) statsHist {
	return statsHist{
		Count: h.Count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.5),
		P99:   h.Quantile(0.99),
		Max:   h.Max,
	}
}

// MarshalJSON serializes the aggregate in the stable machine-readable form
// shared by `hqrun -metrics` and the observability endpoints: lifecycle
// totals, per-PID rows, counter/peak totals, and compact histogram summaries.
func (st Stats) MarshalJSON() ([]byte, error) {
	counters := make(map[string]uint64, len(st.Snapshot.Counters))
	for name, cs := range st.Snapshot.Counters {
		counters[name] = cs.Total
	}
	hists := make(map[string]statsHist, len(st.Snapshot.Histograms))
	for name, h := range st.Snapshot.Histograms {
		hists[name] = compactHist(h)
	}
	return json.Marshal(struct {
		Launched           uint64               `json:"launched"`
		Active             uint64               `json:"active"`
		Finished           uint64               `json:"finished"`
		Killed             uint64               `json:"killed"`
		MessagesVerified   uint64               `json:"messages_verified"`
		Procs              []ProcStats          `json:"procs"`
		ViolationsByPolicy map[string]uint64    `json:"violations_by_policy,omitempty"`
		Counters           map[string]uint64    `json:"counters,omitempty"`
		Histograms         map[string]statsHist `json:"histograms,omitempty"`
	}{
		Launched:           st.Launched,
		Active:             st.Active,
		Finished:           st.Finished,
		Killed:             st.Killed,
		MessagesVerified:   st.MessagesVerified,
		Procs:              st.Procs,
		ViolationsByPolicy: st.ViolationsByPolicy,
		Counters:           counters,
		Histograms:         hists,
	})
}

// String renders the aggregate for humans: one header line, a per-PID table,
// then the registry snapshot in telemetry's format. It is the `hqrun
// -metrics` output.
func (st Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "launched=%d active=%d finished=%d killed=%d messages_verified=%d\n",
		st.Launched, st.Active, st.Finished, st.Killed, st.MessagesVerified)
	if len(st.Procs) > 0 {
		fmt.Fprintf(&b, "%6s  %-8s %12s %6s %10s %8s %14s\n",
			"PID", "STATE", "MSGS", "VIOL", "SYSCALLS", "STALLS", "P99STALL(ns)")
		for _, p := range st.Procs {
			fmt.Fprintf(&b, "%6d  %-8s %12d %6d %10d %8d %14.0f\n",
				p.PID, p.State, p.Messages, p.Violations,
				p.Syscalls, p.SyncStalls, p.StallNs.Quantile(0.99))
		}
	}
	b.WriteString(st.Snapshot.Format())
	return b.String()
}

// Stats returns the aggregate snapshot. The lifecycle identity
// Launched == Active + Finished holds in every snapshot: Active is derived
// as launched-finished under the same lock, so an admitted process still
// setting up counts as active, not as a bookkeeping gap.
func (s *System) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Launched: s.launched,
		Active:   s.launched - s.finished,
		Finished: s.finished,
		Killed:   s.killed,
	}
	s.mu.Unlock()
	st.Procs = s.ProcStats()
	st.ViolationsByPolicy = s.v.ViolationsByPolicy()
	st.Snapshot = s.m.Snapshot().Diff(s.base)
	st.MessagesVerified = st.Snapshot.Counters[verifier.MessagesVerified].Total
	return st
}

// errUnknownKind is returned by NewChannel for an out-of-range kind. The
// message carries the numeric kind so a bad constant is diagnosable from the
// error alone.
type errUnknownKind ipc.Kind

func (e errUnknownKind) Error() string {
	return fmt.Sprintf("herqules: unknown channel kind %d", int(e))
}

// DefaultChannelSlots is the capacity, in messages, of channels constructed
// by NewChannel.
const DefaultChannelSlots = 1 << 14

// NewChannel constructs an IPC channel of the given kind with the default
// capacity, propagating constructor failures (the µarch simulator's
// appendable-region mapping, the FPGA's buffer validation) instead of
// swallowing them. The AppendWrite-µarch kind allocates its appendable
// memory region in a private address space.
func NewChannel(kind ipc.Kind) (*ipc.Channel, error) {
	const slots = DefaultChannelSlots
	switch kind {
	case ipc.KindSharedRing:
		return ipc.NewSharedRing(slots), nil
	case ipc.KindMessageQueue:
		return ipc.NewMessageQueue(), nil
	case ipc.KindPipe:
		return ipc.NewPipe(), nil
	case ipc.KindSocket:
		return ipc.NewSocket(), nil
	case ipc.KindLWC:
		return ipc.NewLWC(), nil
	case ipc.KindFPGA:
		return fpga.NewChannel(slots)
	case ipc.KindUArchModel:
		return uarch.NewModel(slots), nil
	case ipc.KindUArchSim:
		m := mem.New()
		ch, _, err := uarch.New(m, 0x7f00_0000_0000, slots*uint64(ipc.MessageSize))
		return ch, err
	default:
		return nil, errUnknownKind(kind)
	}
}
