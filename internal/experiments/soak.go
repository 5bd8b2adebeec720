package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"herqules/internal/chaos"
	"herqules/internal/compiler"
	"herqules/internal/hqnet"
	"herqules/internal/ipc"
	"herqules/internal/policy"
	"herqules/internal/supervisor"
	"herqules/internal/vm"
)

// soak is one enforcement soak as data: a population of chaosVictim
// processes under one System, one transport and one injector, judged by one
// rule. run is the one loop that launches, collects, judges and tears a
// population down; a phase is its spec and its own "the schedule fired"
// check.
type soak struct {
	name string // prefixes every error ("chaos: hmac")
	cfg  supervisor.Config
	inj  *chaos.Injector
	// net runs the population as hqd clients, over tcp and unix
	// alternating, with inj.Conn wrapping every connection; otherwise each
	// process gets a SharedRing that inj wraps on both ends.
	net    bool
	attack bool // every third process runs the corrupting victim
	judge  soakJudge
	// fired, when set, names what the run left unexercised ("" when the
	// schedule did what the phase is for), from the phase's counts.
	fired func(p SoakPhase) string
}

// SoakPhase is what one soak run counted: the judge's verdicts, what run
// counted beside them and what the injector fired. Chaos and HQD report
// every phase they ran in this one shape.
type SoakPhase struct {
	Name            string       `json:"name"`
	Procs           int          `json:"procs"`
	Violators       int          `json:"violators"`
	CleanOK         int          `json:"clean_ok"`
	CleanKilled     int          `json:"clean_killed"`
	ViolatorsKilled int          `json:"violators_killed"`
	Kills           uint64       `json:"kernel_kills"`
	Resumes         uint64       `json:"resumes"`
	Faults          chaos.Counts `json:"faults"`
	ScheduleHash    string       `json:"schedule_hash"`
	ElapsedMs       int64        `json:"elapsed_ms"`
}

// SoakReport is a soak's machine-readable artifact (`hqbench -exp chaos|hqd
// -out`): its phases in run order, and the goroutine count it settled back
// to once every phase had shut down.
type SoakReport struct {
	Seed              uint64      `json:"seed"`
	Phases            []SoakPhase `json:"phases"`
	GoroutineBaseline int         `json:"goroutine_baseline"`
	GoroutineSettled  int         `json:"goroutine_settled"`
	ElapsedMs         int64       `json:"elapsed_ms"`
}

// Format renders a soak report: one line per phase and its faults under it.
func (r *SoakReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "seed %#x\n", r.Seed)
	for _, p := range r.Phases {
		fmt.Fprintf(&sb, "%-19s %d procs (%d violating): %d clean finished, %d clean killed, %d/%d violators killed, kernel kills=%d, resumes=%d, elapsed %v\n",
			p.Name+":", p.Procs, p.Violators, p.CleanOK, p.CleanKilled, p.ViolatorsKilled, p.Violators,
			p.Kills, p.Resumes, time.Duration(p.ElapsedMs)*time.Millisecond)
		fmt.Fprintf(&sb, "%19s faults %v, schedule hash %s\n", "", p.Faults, p.ScheduleHash)
	}
	fmt.Fprintf(&sb, "teardown: goroutines %d -> %d (baseline), elapsed %v\n",
		r.GoroutineBaseline, r.GoroutineSettled, time.Duration(r.ElapsedMs)*time.Millisecond)
	return sb.String()
}

// soakOutcome is one process's end, as run collects it. Only a ring process
// has its PolicyViolations.
type soakOutcome struct {
	i int
	*supervisor.Outcome
	resumes uint64
	err     error
}

// run launches procs processes, collects them within the wall budget, judges
// each and drains the System (or the daemon in front of it). It returns the
// phase, and an error naming every violated invariant or why the soak could
// not run to the end. Beside the judgement and the fired check it holds
// every soak to one invariant of its own: exactly one kernel kill per killed
// process. The verifier marks a context dead on its first fatal violation
// and the kernel's Kill is idempotent, so fault-induced violation storms,
// resumes and lease scans must not double-kill, and a clean exit must not
// end in a kill.
func (s soak) run(procs int) (SoakPhase, error) {
	cleanIns, err := chaosVictim(false)
	if err != nil {
		return SoakPhase{}, err
	}
	attackIns, err := chaosVictim(true)
	if err != nil {
		return SoakPhase{}, err
	}
	violator := func(i int) bool { return s.attack && i%3 == 2 }
	victim := func(i int) *compiler.Instrumented {
		if violator(i) {
			return attackIns
		}
		return cleanIns
	}

	sys := supervisor.New(s.cfg)
	var stop interface{ Shutdown(context.Context) error } = sys
	budget := chaosWallBudget
	outcomes := make(chan soakOutcome, procs)
	start := time.Now()
	if s.net {
		sockDir, err := os.MkdirTemp("", "hqd-soak-")
		if err != nil {
			abort(sys)
			return SoakPhase{}, err
		}
		defer os.RemoveAll(sockDir)
		sock := filepath.Join(sockDir, "hqd.sock")
		srv := hqnet.NewServer(hqnet.Config{Sys: sys, Lease: hqdLease})
		stop, budget = srv, hqdWallBudget
		tcp, err := srv.Listen("tcp", "127.0.0.1:0")
		if err == nil {
			_, err = srv.Listen("unix", sock)
		}
		if err != nil {
			abort(srv)
			return SoakPhase{}, fmt.Errorf("%s: listen: %w", s.name, err)
		}
		for i := 0; i < procs; i++ {
			network, addr := "tcp", tcp.Addr().String()
			if i%2 == 1 {
				network, addr = "unix", sock
			}
			go func(i int, ins *compiler.Instrumented) {
				outcomes <- s.remote(i, ins, network, addr)
			}(i, victim(i))
		}
	} else {
		// Launched here, in launch order: the injector numbers its streams
		// as they are wrapped, and the schedule is a function of that order.
		handles := make([]*supervisor.Proc, procs)
		for i := range handles {
			raw := ipc.NewSharedRing(1 << 12)
			p, err := sys.Launch(victim(i), supervisor.LaunchOptions{Channel: &ipc.Channel{
				Sender:   s.inj.Sender(raw.Sender),
				Receiver: s.inj.Receiver(raw.Receiver),
				Props:    raw.Props,
			}})
			if err != nil {
				abort(sys)
				return SoakPhase{}, fmt.Errorf("%s: launch %d: %w", s.name, i, err)
			}
			handles[i] = p
		}
		go func() {
			for i, p := range handles {
				out, _ := p.Wait() // a launched process always has an outcome
				outcomes <- soakOutcome{i: i, Outcome: out}
			}
		}()
	}

	// Collect within the wall budget; past it, the abort kills the
	// stragglers.
	timeout := time.After(budget)
	j := s.judge
	for n := 0; n < procs; n++ {
		var o soakOutcome
		select {
		case o = <-outcomes:
		case <-timeout:
			abort(stop)
			return SoakPhase{}, fmt.Errorf("%s: wall budget %v exceeded with %d/%d processes outstanding",
				s.name, budget, procs-n, procs)
		}
		if o.err != nil {
			abort(stop)
			return SoakPhase{}, fmt.Errorf("%s: proc %d: %w", s.name, o.i, o.err)
		}
		if violator(o.i) {
			j.Violators++
		}
		j.Resumes += o.resumes
		j.judge(fmt.Sprintf("%d (pid %d)", o.i, o.PID), violator(o.i), o.Result, o.PolicyViolations)
	}
	if err := drain(stop); err != nil {
		return SoakPhase{}, fmt.Errorf("%s: shutdown: %w", s.name, err)
	}
	p := &j.SoakPhase
	p.Name, p.Procs, p.ElapsedMs = s.name, procs, time.Since(start).Milliseconds()
	p.Faults, p.ScheduleHash = s.inj.Counts(), fmt.Sprintf("%#016x", s.inj.ScheduleHash())

	p.Kills = sys.Stats().Snapshot.Counters["kernel.kills"].Total
	if killed := p.CleanKilled + p.ViolatorsKilled; p.Kills != uint64(killed) {
		j.errs = append(j.errs, fmt.Sprintf("kernel.kills = %d, want exactly %d (one per killed process)",
			p.Kills, killed))
	}
	if s.fired != nil {
		if msg := s.fired(*p); msg != "" {
			j.errs = append(j.errs, msg)
		}
	}
	return *p, failures(s.name, j.errs)
}

// remote runs one instrumented program as an hqd client: its messages cross
// the session (sealed when the daemon runs an authenticated policy set), its
// system calls gate through the daemon's kernel, and its kill arrives as a
// gate verdict or kill notice.
func (s soak) remote(i int, ins *compiler.Instrumented, network, addr string) soakOutcome {
	// At the soak's fault rates the chaos plane regularly kills the HELLO
	// itself. Nothing is admitted then, so the process simply dials again.
	var c *hqnet.Client
	var err error
	for attempt := 0; attempt < 8 && c == nil; attempt++ {
		c, err = hqnet.Dial(context.Background(), hqnet.ClientConfig{
			Network: network, Addr: addr,
			Tenant:   uint64(i % 4),
			WrapConn: s.inj.Conn,
		})
	}
	if err != nil {
		return soakOutcome{i: i, err: fmt.Errorf("dial %s: %w", network, err)}
	}
	defer c.Close()
	cfg := ins.VMConfig()
	cfg.PID = c.PID()
	cfg.Kernel = c
	cfg.Killed = c.Killed
	cfg.Emit = c.Sender().Send
	p, err := vm.NewProcess(ins.Mod, cfg)
	if err != nil {
		return soakOutcome{i: i, err: fmt.Errorf("load %s: %w", ins.Mod.Name, err)}
	}
	res := p.Run("main")
	return soakOutcome{i: i, Outcome: &supervisor.Outcome{Result: res, PID: c.PID()}, resumes: c.Resumes()}
}

// sealedPolicies is hqd's default chain: the default policy set plus the
// hmac sealer. Every name is the registry's own, so an error is a broken
// build, not a soak outcome.
func sealedPolicies() func() []policy.Policy {
	factory, err := policy.SetFactory(append(append([]string{}, policy.DefaultSet...), "hmac")...)
	if err != nil {
		panic(err)
	}
	return factory
}

// soakJudge is the one judgement every enforcement soak passes on its
// processes, and the tally of what it judged (run adds its own counts). A
// violator must be killed and must never commit its gated payload, exit(99);
// the ungated exploit marker may race the kill (§2.2 bounds the window, it
// does not close it), so the marker is not asserted — the gated side effect
// is. A clean process must finish with no error and output [42], or die in a
// way the soak's cleanDeath rule accepts.
type soakJudge struct {
	prefix     string // names the phase in every message ("hmac ")
	outputHint string // glosses a wrong clean output (" (silent tamper?)")
	// cleanDeath returns the invariants a killed clean process's death
	// violates (none: the soak explains it); id names the process.
	cleanDeath func(id string, res *vm.Result, viols []*policy.Violation) []string

	SoakPhase
	errs []string
}

// judge applies the soak invariants to one process's result; id names it in
// messages ("3 (pid 7)"), viols are its recorded policy violations.
func (j *soakJudge) judge(id string, violator bool, res *vm.Result, viols []*policy.Violation) {
	switch {
	case violator && !res.Killed:
		j.fail("violator %s was not killed", id)
	case violator:
		j.ViolatorsKilled++
		if res.ExitCode == 99 {
			j.fail("violator %s: gated payload committed", id)
		}
	case res.Killed:
		j.CleanKilled++
		j.errs = append(j.errs, j.cleanDeath(id, res, viols)...)
	case res.Err != nil:
		j.fail("clean %s: error %v", id, res.Err)
	case len(res.Output) != 1 || res.Output[0] != 42:
		j.fail("clean %s: output %v, want [42]%s", id, res.Output, j.outputHint)
	default:
		j.CleanOK++
	}
}

func (j *soakJudge) fail(format string, args ...any) {
	j.errs = append(j.errs, j.prefix+fmt.Sprintf(format, args...))
}

// drain shuts a System or an hqnet.Server down, giving in-flight work 15 s.
func drain(s interface{ Shutdown(context.Context) error }) error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// abort shuts a System or an hqnet.Server down at once, killing whatever is
// still running.
func abort(s interface{ Shutdown(context.Context) error }) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Shutdown(ctx)
}

// waitFor polls cond for up to d.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// settleGoroutines is the soaks' zero-leak invariant: with every system shut
// down, the goroutine count must fall back to the pre-soak baseline within
// 5 s. It returns the count it settled at.
func settleGoroutines(name string, baseline int) (int, error) {
	settled := waitFor(5*time.Second, func() bool { return runtime.NumGoroutine() <= baseline })
	n := runtime.NumGoroutine()
	if !settled {
		return n, fmt.Errorf("%s: goroutines leaked: %d running, baseline %d", name, n, baseline)
	}
	return n, nil
}
