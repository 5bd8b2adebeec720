package ripe

import (
	"testing"

	"herqules/internal/compiler"
	"herqules/internal/mir"
)

func TestSuiteSize(t *testing.T) {
	suite := Suite()
	if len(suite) != 954 {
		t.Fatalf("suite has %d attacks, want 954 (Table 5 baseline)", len(suite))
	}
	perOrigin := map[Origin]int{}
	names := map[string]bool{}
	for _, a := range suite {
		perOrigin[a.Origin]++
		if names[a.Name()] {
			t.Errorf("duplicate attack %s", a.Name())
		}
		names[a.Name()] = true
	}
	want := map[Origin]int{OriginBSS: 214, OriginData: 234, OriginHeap: 234, OriginStack: 272}
	for o, n := range want {
		if perOrigin[o] != n {
			t.Errorf("%v: %d attacks, want %d", o, perOrigin[o], n)
		}
	}
}

func TestEveryAttackBuildsValidIR(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Suite() {
		// One build per (origin, kind) plus a couple of variants is
		// enough for IR validity; all variants share a generator.
		key := a.Origin.String() + a.Kind.String()
		if seen[key] && a.Variant > 2 {
			continue
		}
		seen[key] = true
		mod := a.Build()
		if err := mir.Validate(mod); err != nil {
			t.Errorf("%s: %v", a.Name(), err)
		}
	}
}

// TestMechanismMatchesPrediction runs one representative variant of every
// (origin, kind) pair under every design and requires the executed outcome
// to equal the analytic prediction. This is the core soundness check of the
// effectiveness evaluation: Table 5 emerges from execution, and execution
// agrees with each mechanism's security argument.
func TestMechanismMatchesPrediction(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Suite() {
		key := a.Origin.String() + "/" + a.Kind.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		for _, d := range compiler.AllDesigns() {
			got, err := Execute(a, d)
			if err != nil {
				t.Errorf("%s under %v: %v", a.Name(), d, err)
				continue
			}
			if want := Expected(a, d); got != want {
				t.Errorf("%s under %v: succeeded=%t, predicted %t", a.Name(), d, got, want)
			}
		}
	}
}

func TestExpectedTableMatchesPaper(t *testing.T) {
	// The analytic predictions reproduce Table 5 exactly.
	want := map[compiler.Design]map[Origin]int{
		compiler.Baseline: {OriginBSS: 214, OriginData: 234, OriginHeap: 234, OriginStack: 272},
		compiler.ClangCFI: {OriginBSS: 60, OriginData: 60, OriginHeap: 60, OriginStack: 10},
		compiler.CCFI:     {},
		compiler.CPI:      {OriginBSS: 10, OriginData: 10, OriginHeap: 10, OriginStack: 10},
		compiler.HQSfeStk: {OriginBSS: 10, OriginData: 10, OriginHeap: 10, OriginStack: 0},
		compiler.HQRetPtr: {},
	}
	wantTotals := map[compiler.Design]int{
		compiler.Baseline: 954, compiler.ClangCFI: 190, compiler.CCFI: 0,
		compiler.CPI: 40, compiler.HQSfeStk: 30, compiler.HQRetPtr: 0,
	}
	for d, wantRow := range want {
		tab := ExpectedTable(d)
		if tab.Total != wantTotals[d] {
			t.Errorf("%v: predicted total %d, want %d", d, tab.Total, wantTotals[d])
		}
		for _, o := range Origins() {
			if tab.ByOrgin[o] != wantRow[o] {
				t.Errorf("%v/%v: predicted %d, want %d", d, o, tab.ByOrgin[o], wantRow[o])
			}
		}
	}
}

func TestFullSuiteExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("full 954x6 execution in long mode only")
	}
	for _, d := range compiler.AllDesigns() {
		tab, err := RunSuite(d, Suite())
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		wantTab := ExpectedTable(d)
		if tab.Total != wantTab.Total {
			t.Errorf("%v: executed total %d, predicted %d", d, tab.Total, wantTab.Total)
		}
		for _, o := range Origins() {
			if tab.ByOrgin[o] != wantTab.ByOrgin[o] {
				t.Errorf("%v/%v: executed %d, predicted %d", d, o, tab.ByOrgin[o], wantTab.ByOrgin[o])
			}
		}
	}
}
