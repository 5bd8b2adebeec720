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

// Chaos is the fault-injection soak behind `hqbench -exp chaos`: an
// enforcement phase asserting the fail-closed invariants under a seeded
// fault schedule, an authenticated-channel phase, then a reproducibility
// phase asserting the schedule is a pure function of the seed. It returns a
// human-readable report on success and an error naming every violated
// invariant otherwise.
func Chaos(c Config) (Report, error) {
	seed, procs := c.Seed, c.Procs
	if procs <= 0 {
		procs = 12
	}
	baseline := runtime.NumGoroutine()

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
		fired: func(f chaos.Counts, _ soakTally) string {
			if f.Total() == 0 {
				return "fault schedule fired nothing: soak proved nothing"
			}
			return ""
		},
	}
	rep, err := enforce.run(procs)
	if err != nil {
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
		fired: func(f chaos.Counts, t soakTally) string {
			if tamper := f.Duplicated + f.Corrupted; tamper == 0 {
				return "hmac fault schedule fired nothing: phase proved nothing"
			} else if t.cleanKilled == 0 {
				return fmt.Sprintf("hmac: %d tamper faults fired but no process was killed (silent drop?)", tamper)
			}
			return ""
		},
	}
	hmacProcs := min(procs, 8)
	hrep, err := hmac.run(hmacProcs)
	if err != nil {
		return Report{}, err
	}

	// The reproducibility phase: clean processes only, with every kill path
	// off — KillOnViolation false, CheckSeq false (counter violations are
	// always fatal, §3.1.1, so they must not be evaluated here) and
	// DegradedLogOnly — so every process emits its complete stream and the
	// injector's per-message schedule covers identical inputs. Two runs with
	// the same seed must produce identical fault counts and schedule hash; a
	// kill would truncate a stream at a timing-dependent point and break
	// that.
	detProcs := min(procs, 4)
	var hashes [2]uint64
	var counts [2]chaos.Counts
	for k := range hashes {
		det := soak{
			name: "chaos: determinism",
			cfg:  supervisor.Config{Epoch: chaosEpoch, Degraded: kernel.DegradedLogOnly},
			inj:  chaosInjector(seed),
			judge: soakJudge{cleanDeath: func(id string, res *vm.Result, _ []*policy.Violation) []string {
				return []string{fmt.Sprintf("determinism proc %s killed (%s) despite log-only degradation", id, res.KillReason)}
			}},
		}
		if _, err := det.run(detProcs); err != nil {
			return Report{}, err
		}
		// Per-message fault decisions are a pure function of (seed, stream,
		// index) and must match exactly. Recv errors and stalls are drawn
		// per RecvBatch call — how many calls the pump makes is scheduler
		// timing — so they are excluded from both the schedule hash and this
		// comparison.
		hashes[k], counts[k] = det.inj.ScheduleHash(), det.inj.Counts()
		counts[k].RecvErrors, counts[k].Stalls = 0, 0
	}
	if hashes[0] != hashes[1] || counts[0] != counts[1] {
		return Report{}, fmt.Errorf(
			"chaos: seed %#x is not reproducible:\n  run1 hash=%#016x %v\n  run2 hash=%#016x %v",
			seed, hashes[0], counts[0], hashes[1], counts[1])
	}

	// Zero leaked goroutines: every phase fully shut down.
	if _, err := settleGoroutines("chaos", baseline); err != nil {
		return Report{}, err
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "seed %#x, %d procs (%d violating), epoch %v\n",
		seed, procs, rep.violators, chaosEpoch)
	fmt.Fprintf(&sb, "soak:        %d clean finished, %d clean killed (attributed), %d/%d violators killed, kernel kills=%d, elapsed %v\n",
		rep.cleanOK, rep.cleanKilled, rep.violatorsKilled, rep.violators, rep.kills,
		rep.elapsed.Round(time.Millisecond))
	fmt.Fprintf(&sb, "faults:      %v (schedule hash %#016x)\n", enforce.inj.Counts(), enforce.inj.ScheduleHash())
	fmt.Fprintf(&sb, "hmac:        %d clean procs, %d finished, %d killed as authentication failures (dup=%d corrupt=%d), kernel kills=%d, elapsed %v\n",
		hmacProcs, hrep.cleanOK, hrep.cleanKilled, hmac.inj.Counts().Duplicated, hmac.inj.Counts().Corrupted, hrep.kills,
		hrep.elapsed.Round(time.Millisecond))
	fmt.Fprintf(&sb, "determinism: 2×%d clean procs, hash %#016x == %#016x, faults %v\n",
		detProcs, hashes[0], hashes[1], counts[0])
	sb.WriteString("invariants:  no violator passed a gate; one kill per killed process in every phase; " +
		"clean deaths attributable; tampered sealed streams die as authentication, " +
		"never counter gaps or silent drops; no goroutine leak; schedule reproducible\n")
	return Report{Text: sb.String()}, nil
}
