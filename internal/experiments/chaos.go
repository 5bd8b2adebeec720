package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"herqules/internal/chaos"
	"herqules/internal/compiler"
	"herqules/internal/kernel"
	"herqules/internal/mir"
	"herqules/internal/policy"
	"herqules/internal/supervisor"
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
	// (send delays, receive stalls) change no message and run much hotter.
	return chaos.NewInjector(seed,
		chaos.WithDrop(0.0012),
		chaos.WithDuplicate(0.0010),
		chaos.WithReorder(0.0010, 4),
		chaos.WithCorrupt(0.0010),
		chaos.WithDelay(0.02, 200*time.Microsecond),
		chaos.WithStall(0.01, time.Millisecond),
	)
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
		"poisoned",                      // context poisoned by a delivery-path failure
	} {
		if strings.Contains(reason, marker) {
			return true
		}
	}
	return hadViolations
}

// Chaos is the fault-injection soak behind `hqbench -exp chaos`: an
// enforcement phase asserting the fail-closed invariants under a seeded
// fault schedule, an authenticated-channel phase, then two reproducibility
// phases asserting the schedule is a pure function of the seed. It returns
// a SoakReport on success and an error naming every violated invariant
// otherwise.
func Chaos(c Config) (Report, error) {
	seed, procs := c.Seed, c.Procs
	if procs <= 0 {
		procs = 12
	}
	rep := &SoakReport{Seed: seed, GoroutineBaseline: runtime.NumGoroutine()}
	start := time.Now()
	phase := func(s soak, procs int) error {
		p, err := s.run(procs)
		rep.Phases = append(rep.Phases, p)
		return err
	}

	// The enforcement phase: mixed clean/violating processes (every third
	// one violating) under one fail-closed System with CheckSeq on, every
	// channel wrapped by the seeded injector on both ends. A clean process
	// may die only for a reason the injected faults explain.
	enforce := soak{
		name:   "chaos",
		cfg:    supervisor.Config{KillOnViolation: true, CheckSeq: true, Epoch: chaosEpoch},
		inj:    chaosInjector(seed),
		attack: true,
		judge: soakJudge{cleanDeath: func(id string, res *vm.Result, viols []*policy.Violation) []string {
			if chaosAttributable(res.KillReason, len(viols) > 0) {
				return nil
			}
			return []string{fmt.Sprintf("clean %s killed for unattributable reason %q", id, res.KillReason)}
		}},
		fired: func(p SoakPhase) string {
			if p.Faults.Total() == 0 {
				return "fault schedule fired nothing: soak proved nothing"
			}
			return ""
		},
	}
	if err := phase(enforce, procs); err != nil {
		return Report{}, err
	}

	// The authenticated-channel phase: clean processes only, under the
	// default policy set extended with the hmac sealer, with the injector
	// limited to the two faults that tamper with sealed messages in transit
	// — duplication and payload bit-flips. Fail-closed here must mean
	// *integrity* kills: every death is attributed by the hmac policy as a
	// message-authentication failure, never misread as a sequence-counter
	// gap (the sealer runs before CheckSeq, so it gets first claim on a
	// tampered message) and never a silent drop — a tampered stream that
	// nobody kills shows up as a clean process with wrong output, which the
	// judgement also catches.
	hmac := soak{
		name: "chaos: hmac",
		cfg:  supervisor.Config{Policies: sealedPolicies(), KillOnViolation: true, CheckSeq: true, Epoch: chaosEpoch},
		// Higher per-fault rates than the enforcement phase: only two fault
		// classes are armed and both are fatal for the stream that draws
		// one, so these rates leave a mix of authenticated-killed and
		// untouched-surviving processes.
		inj: chaos.NewInjector(seed, chaos.WithDuplicate(0.002), chaos.WithCorrupt(0.002)),
		judge: soakJudge{prefix: "hmac ", outputHint: " (silent tamper?)",
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
			}},
		fired: func(p SoakPhase) string {
			if tamper := p.Faults[chaos.FaultDuplicate] + p.Faults[chaos.FaultCorrupt]; tamper == 0 {
				return "hmac fault schedule fired nothing: phase proved nothing"
			} else if p.CleanKilled == 0 {
				return fmt.Sprintf("hmac: %d tamper faults fired but no process was killed (silent drop?)", tamper)
			}
			return ""
		},
	}
	if err := phase(hmac, min(procs, 8)); err != nil {
		return Report{}, err
	}

	// The reproducibility phases: clean processes only, with every kill path
	// off — KillOnViolation false, CheckSeq false (counter violations are
	// always fatal, §3.1.1, so they must not be evaluated here) and
	// DegradedLogOnly — so every process emits its complete stream and the
	// injector's per-message schedule covers identical inputs. Two runs with
	// the same seed must produce identical fault counts and schedule hash; a
	// kill would truncate a stream at a timing-dependent point and break
	// that.
	for range 2 {
		det := soak{
			name: "chaos: determinism",
			cfg:  supervisor.Config{Epoch: chaosEpoch, Degraded: kernel.DegradedLogOnly},
			inj:  chaosInjector(seed),
			judge: soakJudge{cleanDeath: func(id string, res *vm.Result, _ []*policy.Violation) []string {
				return []string{fmt.Sprintf("determinism proc %s killed (%s) despite log-only degradation", id, res.KillReason)}
			}},
		}
		if err := phase(det, min(procs, 4)); err != nil {
			return Report{}, err
		}
		// Per-message fault decisions are a pure function of (seed, stream,
		// index) and must match exactly. Stalls are drawn per RecvBatch
		// call — how many calls the pump makes is scheduler timing — so
		// they are excluded from both the schedule hash and these phases'
		// counts.
		rep.Phases[len(rep.Phases)-1].Faults[chaos.FaultStall] = 0
	}
	if d1, d2 := rep.Phases[2], rep.Phases[3]; d1.ScheduleHash != d2.ScheduleHash || d1.Faults != d2.Faults {
		return Report{}, fmt.Errorf(
			"chaos: seed %#x is not reproducible:\n  run1 hash=%s %v\n  run2 hash=%s %v",
			seed, d1.ScheduleHash, d1.Faults, d2.ScheduleHash, d2.Faults)
	}

	// Zero leaked goroutines: every phase fully shut down.
	var err error
	if rep.GoroutineSettled, err = settleGoroutines("chaos", rep.GoroutineBaseline); err != nil {
		return Report{}, err
	}
	rep.ElapsedMs = time.Since(start).Milliseconds()
	return Report{rep.Format(), rep}, nil
}
