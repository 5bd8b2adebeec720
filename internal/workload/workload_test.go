package workload

import (
	"testing"

	"herqules/internal/compiler"
	"herqules/internal/mir"
	"herqules/internal/supervisor"
)

func TestRosterInventory(t *testing.T) {
	all := All()
	if len(all) != 48 {
		t.Fatalf("roster has %d benchmarks, want 48 (§5)", len(all))
	}
	counts := map[string]int{}
	names := map[string]bool{}
	var castCall, castStore, libm, ccfiIncompat, oldBug, decayBlock, uaf int
	for _, p := range all {
		if names[p.Name] {
			t.Errorf("duplicate benchmark %s", p.Name)
		}
		names[p.Name] = true
		counts[p.Suite]++
		if p.CastAtCall {
			castCall++
		}
		if p.CastAtStore {
			castStore++
		}
		if p.CastAtCall && p.CastAtStore {
			t.Errorf("%s: both cast features set", p.Name)
		}
		if p.LibmOps > 0 {
			libm++
			if !p.CastAtCall && !p.CastAtStore {
				t.Errorf("%s: libm benchmark outside the cast set breaks the Table 4 union", p.Name)
			}
			if p.CCFIIncompatible {
				t.Errorf("%s: libm and CCFIIncompatible overlap double-counts CCFI failures", p.Name)
			}
		}
		if p.CCFIIncompatible {
			ccfiIncompat++
			if !p.CastAtCall && !p.CastAtStore {
				t.Errorf("%s: CCFIIncompatible outside the cast set", p.Name)
			}
		}
		if p.OldCompilerBug {
			oldBug++
			if !p.CastAtStore || !p.CCFIIncompatible {
				t.Errorf("%s: OldCompilerBug must lie inside CastAtStore ∩ CCFIIncompatible", p.Name)
			}
		}
		if p.DecayedBlockOp {
			decayBlock++
			if !p.CastAtStore {
				t.Errorf("%s: DecayedBlockOp outside CastAtStore set", p.Name)
			}
			if len(p.Allowlist()) == 0 {
				t.Errorf("%s: decayed block ops but no allowlist", p.Name)
			}
		}
		if p.UAFBug {
			uaf++
		}
	}
	if counts["CPU2006"] != 19 || counts["CPU2017"] != 28 || counts["NGINX"] != 1 {
		t.Errorf("suite counts = %v", counts)
	}
	// Table 4 arithmetic (§5.1).
	if castCall != 15 {
		t.Errorf("CastAtCall = %d, want 15 (Clang/LLVM CFI false positives)", castCall)
	}
	if castCall+castStore != 29 {
		t.Errorf("cast union = %d, want 29 (CCFI false positives)", castCall+castStore)
	}
	if castStore != 14 {
		t.Errorf("CastAtStore = %d, want 14 (CPI errors)", castStore)
	}
	if ccfiIncompat != 12 {
		t.Errorf("CCFIIncompatible = %d, want 12 (CCFI errors)", ccfiIncompat)
	}
	if libm != 9 {
		t.Errorf("libm benchmarks = %d, want 9 (CCFI invalid)", libm)
	}
	if oldBug != 2 {
		t.Errorf("OldCompilerBug = %d, want 2", oldBug)
	}
	if decayBlock != 4 {
		t.Errorf("DecayedBlockOp = %d, want 4 (allowlist benchmarks)", decayBlock)
	}
	if uaf != 2 {
		t.Errorf("UAFBug = %d, want 2 (the omnetpp pair)", uaf)
	}
}

func TestEveryBenchmarkBuildsValidIR(t *testing.T) {
	for _, p := range All() {
		for _, s := range []Scale{ScaleTest, ScaleTrain, ScaleRef} {
			mod := p.Build(s)
			if err := mir.Validate(mod); err != nil {
				t.Errorf("%s @%v: %v", p.Name, s, err)
			}
		}
	}
}

// runUnder instruments and executes one benchmark under a design.
func runUnder(t *testing.T, p *Profile, d compiler.Design, scale Scale) *supervisor.Outcome {
	t.Helper()
	opts := compiler.DefaultOptions()
	opts.Allowlist = p.Allowlist()
	ins, err := compiler.Instrument(p.Build(scale), d, opts)
	if err != nil {
		t.Fatalf("%s under %v: %v", p.Name, d, err)
	}
	out, err := supervisor.Run(supervisor.Config{}, ins, supervisor.LaunchOptions{Inline: true, ContinueChecks: true})
	if err != nil {
		t.Fatalf("%s under %v: %v", p.Name, d, err)
	}
	return out
}

func TestBenchmarksProduceDeterministicOutput(t *testing.T) {
	for _, name := range []string{"mcf", "gcc", "povray", "h264ref", "nginx", "omnetpp"} {
		p := ByName(name)
		a := runUnder(t, p, compiler.Baseline, ScaleTest)
		b := runUnder(t, p, compiler.Baseline, ScaleTest)
		if a.Err != nil {
			t.Fatalf("%s: baseline crashed: %v", name, a.Err)
		}
		if len(a.Output) == 0 {
			t.Errorf("%s: no output to compare", name)
		}
		if !equalOutput(a.Output, b.Output) {
			t.Errorf("%s: nondeterministic output", name)
		}
	}
}

func equalOutput(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestHQMatchesBaselineOutputEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("full roster in long mode only")
	}
	for _, p := range All() {
		base := runUnder(t, p, compiler.Baseline, ScaleTest)
		if base.Err != nil {
			t.Errorf("%s: baseline crashed: %v", p.Name, base.Err)
			continue
		}
		for _, d := range []compiler.Design{compiler.HQSfeStk, compiler.HQRetPtr} {
			hq := runUnder(t, p, d, ScaleTest)
			if hq.Err != nil {
				t.Errorf("%s under %v: crash %v", p.Name, d, hq.Err)
				continue
			}
			if !equalOutput(base.Output, hq.Output) {
				t.Errorf("%s under %v: output diverged", p.Name, d)
			}
			// HQ emits no false positives: any violation must belong
			// to a benchmark with a real injected bug.
			if len(hq.PolicyViolations) > 0 && !p.UAFBug {
				t.Errorf("%s under %v: unexpected violations: %v",
					p.Name, d, hq.PolicyViolations[0])
			}
		}
	}
}

func TestUAFBenchmarkDetectedOnlyByHQ(t *testing.T) {
	p := ByName("omnetpp")
	hq := runUnder(t, p, compiler.HQSfeStk, ScaleTest)
	if len(hq.PolicyViolations) == 0 {
		t.Error("HQ missed the omnetpp use-after-free")
	}
	if hq.Err != nil {
		t.Errorf("omnetpp crashed under HQ: %v", hq.Err)
	}
	// The stale pointer still works by accident, so output matches.
	base := runUnder(t, p, compiler.Baseline, ScaleTest)
	if !equalOutput(base.Output, hq.Output) {
		t.Error("omnetpp output diverged under HQ")
	}
	// Prior designs do not see it (Table 3: no use-after-free detection).
	for _, d := range []compiler.Design{compiler.ClangCFI, compiler.CCFI, compiler.CPI} {
		out := runUnder(t, p, d, ScaleTest)
		if out.Violations != 0 {
			t.Errorf("%v unexpectedly flagged the UAF", d)
		}
	}
}

func TestCastAtCallFalsePositives(t *testing.T) {
	p := ByName("povray")
	clang := runUnder(t, p, compiler.ClangCFI, ScaleTest)
	if clang.Violations == 0 {
		t.Error("Clang CFI produced no false positive on povray-like casts")
	}
	ccfi := runUnder(t, p, compiler.CCFI, ScaleTest)
	if ccfi.Violations == 0 {
		t.Error("CCFI produced no false positive on povray-like casts")
	}
	hq := runUnder(t, p, compiler.HQSfeStk, ScaleTest)
	if len(hq.PolicyViolations) != 0 {
		t.Error("HQ false-positived on povray-like casts")
	}
	cpi := runUnder(t, p, compiler.CPI, ScaleTest)
	if cpi.Err != nil {
		t.Errorf("CPI crashed on cast-at-call (should handle it): %v", cpi.Err)
	}
}

func TestCastAtStoreCrashesCPI(t *testing.T) {
	p := ByName("milc")
	cpi := runUnder(t, p, compiler.CPI, ScaleTest)
	if cpi.Err == nil {
		t.Error("CPI survived the decayed-store benchmark (expected poisoned-load crash)")
	}
	ccfi := runUnder(t, p, compiler.CCFI, ScaleTest)
	if ccfi.Violations == 0 {
		t.Error("CCFI produced no false positive on decayed stores")
	}
	clang := runUnder(t, p, compiler.ClangCFI, ScaleTest)
	if clang.Violations != 0 {
		t.Error("Clang CFI false-positived on decayed store (it only checks calls)")
	}
	hq := runUnder(t, p, compiler.HQSfeStk, ScaleTest)
	if hq.Err != nil || len(hq.PolicyViolations) != 0 {
		t.Errorf("HQ broke on decayed store: err=%v viol=%d", hq.Err, len(hq.PolicyViolations))
	}
}

func TestLibmBenchmarkInvalidUnderCCFI(t *testing.T) {
	p := ByName("namd")
	base := runUnder(t, p, compiler.Baseline, ScaleTest)
	ccfi := runUnder(t, p, compiler.CCFI, ScaleTest)
	if ccfi.Err != nil {
		t.Fatalf("namd crashed under CCFI: %v", ccfi.Err)
	}
	if equalOutput(base.Output, ccfi.Output) {
		t.Error("CCFI x87 fallback did not perturb namd's output")
	}
	// Every other design matches baseline output.
	for _, d := range []compiler.Design{compiler.HQSfeStk, compiler.ClangCFI} {
		out := runUnder(t, p, d, ScaleTest)
		if !equalOutput(base.Output, out.Output) {
			t.Errorf("%v perturbed namd output", d)
		}
	}
}

func TestDecayedBlockOpNeedsAllowlist(t *testing.T) {
	p := ByName("h264ref")
	// With the allowlist (the default path): clean.
	good := runUnder(t, p, compiler.HQSfeStk, ScaleTest)
	if len(good.PolicyViolations) != 0 || good.Err != nil {
		t.Fatalf("allowlisted run not clean: viol=%d err=%v", len(good.PolicyViolations), good.Err)
	}
	// Without it, strict subtype checking misses the copy and the check
	// at the destination fires (§4.1.4's failure mode).
	opts := compiler.DefaultOptions()
	opts.Allowlist = nil
	ins, err := compiler.Instrument(p.Build(ScaleTest), compiler.HQSfeStk, opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := supervisor.Run(supervisor.Config{}, ins, supervisor.LaunchOptions{Inline: true, ContinueChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PolicyViolations) == 0 {
		t.Error("strict subtype checking without allowlist did not break the benchmark")
	}
	// Conservative (non-strict) mode also fixes it, at higher traffic.
	opts2 := compiler.DefaultOptions()
	opts2.StrictSubtype = false
	ins2, err := compiler.Instrument(p.Build(ScaleTest), compiler.HQSfeStk, opts2)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := supervisor.Run(supervisor.Config{}, ins2, supervisor.LaunchOptions{Inline: true, ContinueChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out2.PolicyViolations) != 0 {
		t.Error("conservative block-op instrumentation still broke the benchmark")
	}
}

func TestOverheadOrderingOnCallHeavyBenchmark(t *testing.T) {
	// gcc_s is the paper's worst RetPtr case (-72%): its dense direct
	// calls make return-pointer messages dominate.
	p := ByName("gcc_s")
	cost := func(d compiler.Design) uint64 {
		opts := compiler.DefaultOptions()
		opts.Allowlist = p.Allowlist()
		ins, err := compiler.Instrument(p.Build(ScaleTest), d, opts)
		if err != nil {
			t.Fatal(err)
		}
		model := simCost()
		out, err := supervisor.Run(supervisor.Config{}, ins, supervisor.LaunchOptions{Inline: true, ContinueChecks: true, Cost: model})
		if err != nil || out.Err != nil {
			t.Fatalf("%v: %v %v", d, err, out.Err)
		}
		return out.Stats.Cycles
	}
	base := cost(compiler.Baseline)
	sfestk := cost(compiler.HQSfeStk)
	retptr := cost(compiler.HQRetPtr)
	clang := cost(compiler.ClangCFI)
	if !(base < clang && clang < sfestk && sfestk < retptr) {
		t.Errorf("cycle ordering violated: base=%d clang=%d sfestk=%d retptr=%d",
			base, clang, sfestk, retptr)
	}
}

func simCost() *simCostModel { return newSimCost() }
