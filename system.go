package herqules

import (
	"context"

	"herqules/internal/kernel"
	"herqules/internal/obs"
	"herqules/internal/supervisor"
	"herqules/internal/telemetry"
)

// Metrics is the telemetry registry shared by every component of a System:
// lane-striped counters and latency histograms, readable
// without stopping the world. Every System counts into one; WithMetrics
// chooses which.
type Metrics = telemetry.Metrics

// NewMetrics creates a telemetry registry with the default stripe width
// (one lane per GOMAXPROCS).
func NewMetrics() *Metrics { return telemetry.New(0) }

// SystemStats is the per-system aggregate snapshot: process lifecycle
// totals, the shared verifier's message total, per-PID attribution rows, and
// a telemetry snapshot covering exactly this system's lifetime. Its String
// and MarshalJSON forms are the canonical renderings shared by hqrun and the
// /procs endpoint.
type SystemStats = supervisor.Stats

// ProcStats is one per-PID attribution row of a SystemStats: validated
// messages, violations, syscall-gate figures and the per-process stall
// distribution.
type ProcStats = supervisor.ProcStats

// SystemHealth is the liveness summary served by the /healthz endpoint.
type SystemHealth = supervisor.Health

// Proc is a handle to one monitored program running under a System: PID(),
// Done() and Wait(), which returns the same *Outcome Run returns.
type Proc = supervisor.Proc

// System is the resident HerQules runtime — the deployment model of the
// paper's Figure 1, where one kernel module and one verifier serve every
// monitored program on the machine. A System owns one kernel and one
// verifier (a policy context per process); any number of instrumented
// programs Launch into it, run concurrently (each over its own AppendWrite
// channel, drained into the verifier by a goroutine of its own), and exit
// independently. Shutdown drains all in-flight messages before stopping.
//
//	sys := herqules.NewSystem(herqules.WithKillOnViolation(true))
//	defer sys.Shutdown(context.Background())
//	p, err := sys.Launch(ins)
//	out, err := p.Wait()
//
// The legacy single-shot entry point Run remains as a compatibility wrapper
// that stands up a throwaway System per call.
type System struct {
	s *supervisor.System

	obs     *obs.Server // nil unless WithHTTPAddr was given
	obsErr  error       // bind failure, reported by HTTPAddr
	obsAddr string      // resolved listen address
}

// systemConfig is the construction-time state SystemOptions mutate: the
// supervisor configuration plus facade-level concerns (the observability
// endpoint) that the enforcement stack itself must not know about.
type systemConfig struct {
	sup      supervisor.Config
	httpAddr string
}

// SystemOption configures a System at construction.
type SystemOption func(*systemConfig)

// WithMetrics makes the System count into m (kernel gate and verifier)
// instead of a registry of its own, so several Systems or other
// instrumentation can share one; Stats still reports this System's interval.
func WithMetrics(m *Metrics) SystemOption {
	return func(c *systemConfig) { c.sup.Metrics = m }
}

// WithPolicies selects each monitored process's verifier policy set by
// registry name — e.g. WithPolicies("cfi", "memsafety", "hmac"). Policies()
// lists the registered names; the default set (when neither WithPolicies nor
// WithPolicyFactory is given) is cfi + memsafety + counter + dfi.
//
// An unknown name panics at NewSystem time: policy names are configuration
// constants, and a misspelling must not silently construct an unprotected
// system. Use PolicySet to resolve names with an error return instead.
func WithPolicies(names ...string) SystemOption {
	f, err := PolicySet(names...)
	if err != nil {
		panic("herqules.WithPolicies: " + err.Error())
	}
	return func(c *systemConfig) { c.sup.Policies = f }
}

// WithPolicyFactory sets an explicit factory building each monitored
// process's policy set — for policy implementations that are not (or cannot
// be) registered by name, or sets needing per-construction state. Most
// callers should prefer WithPolicies.
func WithPolicyFactory(f PolicyFactory) SystemOption {
	return func(c *systemConfig) { c.sup.Policies = f }
}

// WithKillOnViolation controls whether the verifier terminates a program on
// a failed policy check (§3.4). The default is false, the paper's
// measurement configuration.
func WithKillOnViolation(kill bool) SystemOption {
	return func(c *systemConfig) { c.sup.KillOnViolation = kill }
}

// WithCheckSeq enables per-process message-counter verification (§3.1.1):
// a gap, duplicate or replay in a monitored process's message stream is
// treated as a policy violation. Off by default (the paper's measurement
// configuration); enforcement deployments should enable it.
func WithCheckSeq(on bool) SystemOption {
	return func(c *systemConfig) { c.sup.CheckSeq = on }
}

// WithChannelKind selects the AppendWrite transport the System constructs
// for processes launched without an explicit channel (default: the
// shared-memory ring).
func WithChannelKind(kind ChannelKind) SystemOption {
	return func(c *systemConfig) { c.sup.ChannelKind = kind }
}

// DegradedPolicy selects how the kernel treats a synchronization-epoch
// expiry — the moment validation is detectably not keeping up (§2.2).
type DegradedPolicy = kernel.DegradedPolicy

// Degraded policies for WithDegradedPolicy.
const (
	// DegradedFailClosed (the default) kills the stalled process at the
	// epoch deadline, with a distinct wedged-verifier reason when the
	// verifier has poisoned its context.
	DegradedFailClosed = kernel.DegradedFailClosed
	// DegradedLogOnly records every bypassed epoch (counters, events,
	// per-process stats) and lets the system call proceed. Fail-open:
	// measurement and chaos experiments only.
	DegradedLogOnly = kernel.DegradedLogOnly
)

// WithDegradedPolicy selects the kernel's behaviour when validation stops
// making progress for a process (silent channel, poisoned verifier
// context). The default is DegradedFailClosed.
func WithDegradedPolicy(p DegradedPolicy) SystemOption {
	return func(c *systemConfig) { c.sup.Degraded = p }
}

// ForensicReport is the kill postmortem captured by the flight recorder: the
// attributed policy, kill reason, last-N message window, per-policy decision
// trail and poison state frozen at the instant of the kill, wrapped with the
// kernel's syscall-gate figures and lifecycle timestamps. Retrieve with
// System.Forensics, or scrape /violations when an HTTP endpoint is attached.
type ForensicReport = supervisor.ForensicReport

// DefaultFlightSlots is the flight-ring capacity a System gives each process
// unless WithFlightRecorder sizes it.
const DefaultFlightSlots = telemetry.DefaultFlightSlots

// WithFlightRecorder sizes each process's black box: a fixed-size ring of
// the last n verified messages (with per-message policy outcomes) plus
// lifecycle events (register, fork, gate stalls, epoch and lease expiries,
// kill), frozen at the moment a process is killed and served as a
// ForensicReport. Every System keeps one per process; n is rounded to a power
// of two, and n <= 0 selects DefaultFlightSlots. The stamp is one store into
// a preallocated slot under the context lock the verifier already holds — no
// allocation, no extra synchronization.
func WithFlightRecorder(n int) SystemOption {
	return func(c *systemConfig) { c.sup.FlightRecorder = n }
}

// WithHTTPAddr serves the observability endpoints on addr (host:port;
// ":8080" or "127.0.0.1:0" both work): /metrics in Prometheus text format,
// /healthz, /procs, /violations and /debug/pprof/, read from the System's
// registry and flight rings. A bind failure does not fail NewSystem — the
// enforcement stack is independent of the scrape endpoint — but is reported
// by HTTPAddr.
func WithHTTPAddr(addr string) SystemOption {
	return func(c *systemConfig) { c.httpAddr = addr }
}

// NewSystem constructs a resident runtime. The zero configuration is
// usable: default policies, violations recorded but not killed, shared-ring
// transport.
func NewSystem(opts ...SystemOption) *System {
	var cfg systemConfig
	for _, o := range opts {
		o(&cfg)
	}
	sys := &System{s: supervisor.New(cfg.sup)}
	if cfg.httpAddr != "" {
		sys.obs = obs.NewServer(sys.s)
		if err := sys.obs.Start(cfg.httpAddr); err != nil {
			sys.obs, sys.obsErr = nil, err
		} else {
			sys.obsAddr = sys.obs.Addr()
		}
	}
	return sys
}

// HTTPAddr reports the resolved observability listen address, or the bind
// error when WithHTTPAddr was given but the listener could not be opened.
// Both are zero when the System was built without WithHTTPAddr.
func (s *System) HTTPAddr() (string, error) { return s.obsAddr, s.obsErr }

// Health returns the system's liveness summary (the /healthz document).
func (s *System) Health() SystemHealth { return s.s.Health() }

// ProcStats returns one attribution row per launched process, running and
// finished, ascending by PID.
func (s *System) ProcStats() []ProcStats { return s.s.ProcStats() }

// RunOption configures one Launch.
type RunOption func(*supervisor.LaunchOptions)

// WithEntry selects the entry function (default "main").
func WithEntry(name string) RunOption {
	return func(o *supervisor.LaunchOptions) { o.Entry = name }
}

// WithArgs passes arguments to the entry function.
func WithArgs(args ...uint64) RunOption {
	return func(o *supervisor.LaunchOptions) { o.Args = args }
}

// WithChannel launches the process over an explicit AppendWrite transport
// instead of one constructed from the System's channel kind. The System
// takes ownership of the channel: it is closed when the process finishes
// emitting, and on every Launch failure path — do not reuse it afterwards.
func WithChannel(ch *Channel) RunOption {
	return func(o *supervisor.LaunchOptions) { o.Channel = ch; o.Inline = false }
}

// WithInlineDelivery selects deterministic inline delivery: messages are
// evaluated by the shared verifier at send time, on the program's own
// goroutine — the reproducible mode the performance and effectiveness
// experiments use. No concurrent channel is involved.
func WithInlineDelivery() RunOption {
	return func(o *supervisor.LaunchOptions) { o.Inline = true; o.Channel = nil }
}

// WithCost attaches a cycle model to the run.
func WithCost(cm *CostModel) RunOption {
	return func(o *supervisor.LaunchOptions) { o.Cost = cm }
}

// WithContinueChecks makes in-process checks (Clang-CFI, CCFI) record and
// continue rather than trap — the §5 performance methodology.
func WithContinueChecks() RunOption {
	return func(o *supervisor.LaunchOptions) { o.ContinueChecks = true }
}

// WithMaxInstructions bounds execution (0 keeps the VM default).
func WithMaxInstructions(n uint64) RunOption {
	return func(o *supervisor.LaunchOptions) { o.MaxInstructions = n }
}

// WithSeed randomizes information-hiding layout; the same seed reproduces
// the same layout.
func WithSeed(seed uint64) RunOption {
	return func(o *supervisor.LaunchOptions) { o.Seed = seed }
}

// Launch starts an instrumented program as a new monitored process under
// the System and returns immediately with a handle; collect the result with
// Proc.Wait. By default the process gets a fresh channel of the System's
// configured kind; override with WithChannel or WithInlineDelivery.
func (s *System) Launch(ins *Instrumented, opts ...RunOption) (*Proc, error) {
	var lo supervisor.LaunchOptions
	for _, o := range opts {
		o(&lo)
	}
	return s.s.Launch(ins, lo)
}

// Shutdown stops the System gracefully: new launches are refused, running
// processes finish and their channels drain fully, every received message
// delivered before its drain goroutine returns. If ctx expires first,
// still-running processes are killed and Shutdown returns the context's
// error after the (then bounded) drain completes. Idempotent.
func (s *System) Shutdown(ctx context.Context) error {
	err := s.s.Shutdown(ctx)
	if s.obs != nil {
		// The endpoint outlives the drain (a scraper can observe the final
		// totals during shutdown) but not the System.
		_ = s.obs.Close()
	}
	return err
}

// Stats returns the system's aggregate snapshot.
func (s *System) Stats() SystemStats { return s.s.Stats() }

// Forensics returns the kill postmortem for pid. ok is false when pid was
// never killed or the report has been evicted by bounded retention.
func (s *System) Forensics(pid int32) (ForensicReport, bool) { return s.s.Forensics(pid) }

// AllForensics returns every retained kill postmortem, ascending by PID.
func (s *System) AllForensics() []ForensicReport { return s.s.AllForensics() }
