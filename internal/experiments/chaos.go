package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"herqules/internal/chaos"
	"herqules/internal/compiler"
	"herqules/internal/ipc"
	"herqules/internal/kernel"
	"herqules/internal/mir"
	"herqules/internal/policy"
	"herqules/internal/supervisor"
	"herqules/internal/telemetry"
	"herqules/internal/vm"
)

// Chaos soak parameters. The rates are chosen so a ~250-message process
// stream draws a handful of faults: enough that most processes experience
// the failure classes under test, low enough that the soak's wall time stays
// dominated by execution, not epoch stalls.
const (
	chaosEpoch      = 250 * time.Millisecond
	chaosWallBudget = 60 * time.Second
	chaosIters      = 60 // pointer-traffic iterations per process
)

func chaosInjector(seed uint64) *chaos.Injector {
	// Integrity faults (drop/duplicate/reorder/corrupt) are fatal for the
	// stream that draws one, so their combined rate is tuned to roughly one
	// per three process streams: the soak then exercises both clean-process
	// outcomes — surviving untouched and dying attributably. Timing faults
	// (delay/transient errors/stalls) are survivable and run much hotter.
	return chaos.NewInjector(seed,
		chaos.WithDrop(0.0012),
		chaos.WithDuplicate(0.0010),
		chaos.WithReorder(0.0010, 4),
		chaos.WithCorrupt(0.0010),
		chaos.WithDelay(0.02, 200*time.Microsecond),
		chaos.WithTransientSendErrors(0.02),
		chaos.WithTransientRecvErrors(0.02),
		chaos.WithStall(0.01, time.Millisecond),
	)
}

// chaosLaunch starts ins under sys over a fresh shared ring that the injector
// wraps on both ends.
func chaosLaunch(sys *supervisor.System, inj *chaos.Injector, ins *compiler.Instrumented) (*supervisor.Proc, error) {
	raw := ipc.NewSharedRing(1 << 12)
	return sys.Launch(ins, supervisor.LaunchOptions{Channel: &ipc.Channel{
		Sender:   inj.Sender(raw.Sender),
		Receiver: inj.Receiver(raw.Receiver),
		Props:    raw.Props,
	}})
}

// chaosVictim builds the soak workload: a loop of heap slots holding a
// function pointer that is stored, checked and indirectly called (the HQ-CFI
// hot path), with a gated effectful system call every few iterations so
// bounded asynchronous validation is exercised throughout, ending in the
// supervisor test's corruptible dispatch. With corrupt set, the final
// function pointer is overwritten through an integer alias and the attacker
// payload carries a *gated* exit(99) the kernel must never let commit. The
// program comes back instrumented for HQ-CFI-SfeStk.
func chaosVictim(corrupt bool) (*compiler.Instrumented, error) {
	mod := mir.NewModule("chaos-victim")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.I64, mir.I64)

	b.Func("attacker", sig, "x") // function #0
	b.Syscall(vm.SysMarkExploit)
	b.Syscall(vm.SysExit, mir.ConstInt(99))
	b.Ret(mir.ConstInt(0))

	legit := b.Func("legit", sig, "x")
	b.Ret(b.Add(legit.Params[0], mir.ConstInt(1)))

	b.Func("main", mir.FuncType(mir.I64))
	for i := 0; i < chaosIters; i++ {
		slot := b.Cast(b.Malloc(mir.ConstInt(16)), mir.Ptr(mir.Ptr(sig)))
		b.Store(b.FuncAddr(legit), slot)
		r := b.ICall(b.Load(slot), sig, mir.ConstInt(uint64(i)))
		if i%8 == 7 {
			b.Syscall(vm.SysSend, r)
		}
	}
	slot := b.Cast(b.Malloc(mir.ConstInt(16)), mir.Ptr(mir.Ptr(sig)))
	b.Store(b.FuncAddr(legit), slot)
	if corrupt {
		b.Store(mir.ConstInt(vm.StaticFuncAddr(0)), b.Cast(slot, mir.Ptr(mir.I64)))
	}
	r := b.ICall(b.Load(slot), sig, mir.ConstInt(41))
	b.Syscall(vm.SysWrite, r)
	b.Syscall(vm.SysExit, mir.ConstInt(0))
	b.Ret(mir.ConstInt(0))
	mod.Finalize()
	if err := mir.Validate(mod); err != nil {
		return nil, fmt.Errorf("chaos: victim module: %w", err)
	}
	ins, err := compiler.Instrument(mod, compiler.HQSfeStk, compiler.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("chaos: instrument victim: %w", err)
	}
	return ins, nil
}

// chaosAttributable reports whether a kill reason is one the chaos plane
// accounts for — a process may only die for a reason the injected faults
// explain. Sequence-counter violations cover drop/duplicate/reorder and
// Seq-bit corruption; epoch expiry covers suppressed synchronization
// messages (and carries the wedged-verifier detail when the watchdog
// attributed it); integrity errors cover framing corruption; a recorded
// policy violation covers payload-bit corruption that turned a clean check
// into a failing one.
func chaosAttributable(reason string, hadViolations bool) bool {
	for _, marker := range []string{
		"message counter",               // CheckSeq (§3.1.1)
		"synchronization epoch expired", // §2.2 deadline, incl. wedged detail
		"message integrity violated",    // receiver-attributed framing error
		"message authentication",        // hmac sealer: MAC mismatch or stream position
		"poisoned",                      // shard poisoned by a delivery-path failure
	} {
		if strings.Contains(reason, marker) {
			return true
		}
	}
	return hadViolations
}

// chaosSoakReport summarizes one enforcement soak run.
type chaosSoakReport struct {
	procs, violators     int
	cleanOK, cleanKilled int
	violatorsKilled      int
	kills                uint64
	faults               chaos.Counts
	scheduleHash         uint64
	elapsed              time.Duration
}

// chaosSoak runs the enforcement phase: procs mixed clean/violating
// processes (every third one violating) under one fail-closed System with
// CheckSeq on, every channel wrapped by the seeded injector on both ends.
// It returns an error on any violated invariant: a violator passing a gate,
// a kill count not matching the killed-process count, a clean process dead
// for a reason chaos cannot explain, or the wall budget running out.
func chaosSoak(seed uint64, procs int, cleanIns, attackIns *compiler.Instrumented) (*chaosSoakReport, error) {
	m := telemetry.New(0)
	sys := supervisor.New(supervisor.Config{
		KillOnViolation: true,
		CheckSeq:        true,
		Metrics:         m,
		Epoch:           chaosEpoch,
	})
	inj := chaosInjector(seed)

	rep := &chaosSoakReport{procs: procs}
	start := time.Now()
	handles := make([]*supervisor.Proc, procs)
	for i := range handles {
		ins := cleanIns
		if i%3 == 2 {
			ins = attackIns
			rep.violators++
		}
		p, err := chaosLaunch(sys, inj, ins)
		if err != nil {
			return nil, fmt.Errorf("chaos: launch %d: %w", i, err)
		}
		handles[i] = p
	}
	outcomes, err := soakCollect("chaos", waitProcs(handles), procs, chaosWallBudget)
	if err != nil {
		abort(sys)
		return nil, err
	}

	// A clean process may die only for a reason the injected faults explain.
	j := soakJudge{cleanDeath: func(id string, res *vm.Result, viols []*policy.Violation) []string {
		if chaosAttributable(res.KillReason, len(viols) > 0) {
			return nil
		}
		return []string{fmt.Sprintf("clean %s killed for unattributable reason %q", id, res.KillReason)}
	}}
	for i, out := range outcomes {
		j.judge(fmt.Sprintf("%d (pid %d)", i, out.PID), i%3 == 2, out.Result, out.PolicyViolations)
	}
	rep.cleanOK, rep.cleanKilled, rep.violatorsKilled = j.cleanOK, j.cleanKilled, j.violatorsKilled
	invariantErrs := j.errs

	if err := drain(sys); err != nil {
		return nil, fmt.Errorf("chaos: shutdown: %w", err)
	}
	rep.elapsed = time.Since(start)

	// Exactly one kernel kill per killed process: the verifier marks a
	// context dead on its first fatal violation and the kernel's Kill is
	// idempotent, so chaos-induced violation storms must not double-kill.
	rep.kills = m.Snapshot().Counters["kernel.kills"].Total
	if killed := j.cleanKilled + j.violatorsKilled; rep.kills != uint64(killed) {
		invariantErrs = append(invariantErrs,
			fmt.Sprintf("kernel.kills = %d, want exactly %d (one per killed process)",
				rep.kills, killed))
	}
	rep.faults = inj.Counts()
	rep.scheduleHash = inj.ScheduleHash()
	if rep.faults.Total() == 0 {
		invariantErrs = append(invariantErrs, "fault schedule fired nothing: soak proved nothing")
	}
	return rep, failures("chaos", invariantErrs)
}

// chaosHmacReport summarizes the authenticated-channel phase.
type chaosHmacReport struct {
	procs, cleanOK, killed int
	faults                 chaos.Counts
	elapsed                time.Duration
}

// chaosHmacSoak runs the authenticated-channel phase: clean processes only,
// under the default policy set extended with the hmac sealer, with the
// injector limited to the two faults that tamper with sealed messages in
// transit — duplication and payload bit-flips. Fail-closed here must mean
// *integrity* kills: every death is attributed by the hmac policy as a
// message-authentication failure, never misread as a sequence-counter gap
// (the sealer runs before CheckSeq, so it gets first claim on a tampered
// message) and never a silent drop — a tampered stream that nobody kills
// shows up as a clean process with wrong output, which is also asserted.
func chaosHmacSoak(seed uint64, procs int, cleanIns *compiler.Instrumented) (*chaosHmacReport, error) {
	names := append(append([]string{}, policy.DefaultSet...), "hmac")
	factory, err := policy.SetFactory(names...)
	if err != nil {
		return nil, fmt.Errorf("chaos: hmac policy set: %w", err)
	}
	sys := supervisor.New(supervisor.Config{
		Policies:        factory,
		KillOnViolation: true,
		CheckSeq:        true,
		Epoch:           chaosEpoch,
	})
	// Higher per-fault rates than the main soak: only two fault classes are
	// armed and both are fatal for the stream that draws one, so these rates
	// leave a mix of authenticated-killed and untouched-surviving processes.
	inj := chaos.NewInjector(seed,
		chaos.WithDuplicate(0.002),
		chaos.WithCorrupt(0.002),
	)

	rep := &chaosHmacReport{procs: procs}
	start := time.Now()
	handles := make([]*supervisor.Proc, procs)
	for i := range handles {
		p, err := chaosLaunch(sys, inj, cleanIns)
		if err != nil {
			return nil, fmt.Errorf("chaos: hmac launch %d: %w", i, err)
		}
		handles[i] = p
	}
	outcomes, err := soakCollect("chaos: hmac", waitProcs(handles), procs, chaosWallBudget)
	if err != nil {
		abort(sys)
		return nil, err
	}

	// Every death is an authentication failure the hmac policy recorded.
	j := soakJudge{prefix: "hmac ", outputHint: " (silent tamper?)",
		cleanDeath: func(id string, res *vm.Result, viols []*policy.Violation) []string {
			var errs []string
			if !strings.Contains(res.KillReason, "message authentication") {
				errs = append(errs, fmt.Sprintf("hmac kill %s not attributed to authentication: %q", id, res.KillReason))
			}
			if strings.Contains(res.KillReason, "message counter") {
				errs = append(errs, fmt.Sprintf("hmac kill %s misattributed to the sequence counter: %q", id, res.KillReason))
			}
			if !slices.ContainsFunc(viols, func(v *policy.Violation) bool { return v.Policy == "hmac" }) {
				errs = append(errs, fmt.Sprintf("hmac kill %s: no recorded violation attributed to the hmac policy", id))
			}
			return errs
		}}
	for i, out := range outcomes {
		j.judge(fmt.Sprintf("%d (pid %d)", i, out.PID), false, out.Result, out.PolicyViolations)
	}
	rep.cleanOK, rep.killed = j.cleanOK, j.cleanKilled
	invariantErrs := j.errs

	if err := drain(sys); err != nil {
		return nil, fmt.Errorf("chaos: hmac shutdown: %w", err)
	}
	rep.elapsed = time.Since(start)
	rep.faults = inj.Counts()
	if rep.faults.Duplicated+rep.faults.Corrupted == 0 {
		invariantErrs = append(invariantErrs, "hmac fault schedule fired nothing: phase proved nothing")
	}
	if rep.faults.Duplicated+rep.faults.Corrupted > 0 && rep.killed == 0 {
		invariantErrs = append(invariantErrs,
			fmt.Sprintf("hmac: %d tamper faults fired but no process was killed (silent drop?)",
				rep.faults.Duplicated+rep.faults.Corrupted))
	}
	return rep, failures("chaos: hmac phase", invariantErrs)
}

// chaosDeterminism runs the reproducibility phase: clean processes only,
// with every kill path off — KillOnViolation false, CheckSeq false (counter
// violations are always fatal, §3.1.1, so they must not be evaluated here)
// and DegradedLogOnly — so every process emits its complete stream and the
// injector's per-message schedule covers identical inputs. Two runs with the
// same seed must produce identical fault counts and schedule hash; a kill
// would truncate a stream at a timing-dependent point and break that.
func chaosDeterminism(seed uint64, procs int, cleanIns *compiler.Instrumented) (uint64, chaos.Counts, error) {
	sys := supervisor.New(supervisor.Config{
		Epoch:    chaosEpoch,
		Degraded: kernel.DegradedLogOnly,
	})
	inj := chaosInjector(seed)
	handles := make([]*supervisor.Proc, procs)
	for i := 0; i < procs; i++ {
		p, err := chaosLaunch(sys, inj, cleanIns)
		if err != nil {
			return 0, chaos.Counts{}, fmt.Errorf("chaos: determinism launch %d: %w", i, err)
		}
		handles[i] = p
	}
	for i, p := range handles {
		out, err := p.Wait()
		if err != nil {
			return 0, chaos.Counts{}, fmt.Errorf("chaos: determinism wait %d: %w", i, err)
		}
		if out.Killed {
			return 0, chaos.Counts{}, fmt.Errorf(
				"chaos: determinism proc %d killed (%s) despite log-only degradation",
				i, out.KillReason)
		}
	}
	if err := drain(sys); err != nil {
		return 0, chaos.Counts{}, fmt.Errorf("chaos: determinism shutdown: %w", err)
	}
	return inj.ScheduleHash(), inj.Counts(), nil
}

// Chaos is the fault-injection soak behind `hqbench -exp chaos`: an
// enforcement phase asserting the fail-closed invariants under a seeded
// fault schedule, then a reproducibility phase asserting the schedule is a
// pure function of the seed. It returns a human-readable report on success
// and an error naming every violated invariant otherwise.
func Chaos(c Config) (Report, error) {
	seed, procs := c.Seed, c.Procs
	if procs <= 0 {
		procs = 12
	}
	baseline := runtime.NumGoroutine()

	cleanIns, err := chaosVictim(false)
	if err != nil {
		return Report{}, err
	}
	attackIns, err := chaosVictim(true)
	if err != nil {
		return Report{}, err
	}

	rep, err := chaosSoak(seed, procs, cleanIns, attackIns)
	if err != nil {
		return Report{}, err
	}

	hmacProcs := 8
	if hmacProcs > procs {
		hmacProcs = procs
	}
	hrep, err := chaosHmacSoak(seed, hmacProcs, cleanIns)
	if err != nil {
		return Report{}, err
	}

	detProcs := 4
	if detProcs > procs {
		detProcs = procs
	}
	h1, c1, err := chaosDeterminism(seed, detProcs, cleanIns)
	if err != nil {
		return Report{}, err
	}
	h2, c2, err := chaosDeterminism(seed, detProcs, cleanIns)
	if err != nil {
		return Report{}, err
	}
	// Per-message fault decisions are a pure function of (seed, stream,
	// index) and must match exactly. Recv errors and stalls are drawn per
	// RecvBatch call — how many calls the pump makes is scheduler timing —
	// so they are excluded from both the schedule hash and this comparison.
	c1.RecvErrors, c1.Stalls = 0, 0
	c2.RecvErrors, c2.Stalls = 0, 0
	if h1 != h2 || c1 != c2 {
		return Report{}, fmt.Errorf(
			"chaos: seed %#x is not reproducible:\n  run1 hash=%#016x %v\n  run2 hash=%#016x %v",
			seed, h1, c1, h2, c2)
	}

	// Zero leaked goroutines: every phase fully shut down.
	if _, err := settleGoroutines("chaos", baseline); err != nil {
		return Report{}, err
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "seed %#x, %d procs (%d violating), epoch %v\n",
		seed, rep.procs, rep.violators, chaosEpoch)
	fmt.Fprintf(&sb, "soak:        %d clean finished, %d clean killed (attributed), %d/%d violators killed, kernel kills=%d, elapsed %v\n",
		rep.cleanOK, rep.cleanKilled, rep.violatorsKilled, rep.violators, rep.kills,
		rep.elapsed.Round(time.Millisecond))
	fmt.Fprintf(&sb, "faults:      %v (schedule hash %#016x)\n", rep.faults, rep.scheduleHash)
	fmt.Fprintf(&sb, "hmac:        %d clean procs, %d finished, %d killed as authentication failures (dup=%d corrupt=%d), elapsed %v\n",
		hrep.procs, hrep.cleanOK, hrep.killed, hrep.faults.Duplicated, hrep.faults.Corrupted,
		hrep.elapsed.Round(time.Millisecond))
	fmt.Fprintf(&sb, "determinism: 2×%d clean procs, hash %#016x == %#016x, faults %v\n",
		detProcs, h1, h2, c1)
	sb.WriteString("invariants:  no violator passed a gate; one kill per killed process; " +
		"clean deaths attributable; tampered sealed streams die as authentication, " +
		"never counter gaps or silent drops; no goroutine leak; schedule reproducible\n")
	return Report{Text: sb.String()}, nil
}
