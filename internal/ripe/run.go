package ripe

import (
	"fmt"

	"herqules/internal/compiler"
	"herqules/internal/supervisor"
)

// Execute builds, instruments and runs one attack under a design in
// effectiveness mode (violations kill, in-process checks trap — the §5.2
// methodology) and reports whether the exploit succeeded: attacker-chosen
// code executed its marker system call.
func Execute(a Attack, d compiler.Design) (bool, error) {
	ins, err := compiler.Instrument(a.Build(), d, compiler.DefaultOptions())
	if err != nil {
		return false, fmt.Errorf("ripe: instrumenting %s under %v: %w", a.Name(), d, err)
	}
	out, err := supervisor.Run(supervisor.Config{KillOnViolation: true}, ins, supervisor.LaunchOptions{Inline: true})
	if err != nil {
		return false, fmt.Errorf("ripe: running %s under %v: %w", a.Name(), d, err)
	}
	return out.ExploitMarker, nil
}

// Table is the Table 5 shape: successful exploits per origin and in total.
type Table struct {
	Design  compiler.Design
	ByOrgin map[Origin]int
	Total   int
}

// RunSuite executes attacks (Suite() for the whole of Table 5) under one
// design.
func RunSuite(d compiler.Design, attacks []Attack) (*Table, error) {
	t := &Table{Design: d, ByOrgin: make(map[Origin]int)}
	for _, a := range attacks {
		ok, err := Execute(a, d)
		if err != nil {
			return nil, err
		}
		if ok {
			t.ByOrgin[a.Origin]++
			t.Total++
		}
	}
	return t, nil
}

// Expected is the analytically predicted outcome of an attack under a
// design, derived from each mechanism (documented in §5.2's terms):
//
//   - Baseline stops nothing.
//   - Clang/LLVM CFI admits same-class replacements (code reuse), the
//     stack-resident pointers its safe-stack pass could not move, and
//     disclosure attacks on the safe stack; its guard pages stop linear
//     overwrites.
//   - CCFI and HQ-CFI-RetPtr stop everything: value/MAC checks cover
//     forward edges and return addresses alike.
//   - CPI stops forward-edge attacks via the safe store but loses its
//     unguarded safe stack to disclosure and linear overwrites.
//   - HQ-CFI-SfeStk stops everything except disclosure of the safe stack.
//
// Tests compare these predictions against actual execution; the experiment
// tables are produced from actual execution only.
func Expected(a Attack, d compiler.Design) bool {
	switch d {
	case compiler.Baseline:
		return true
	case compiler.ClangCFI:
		switch a.Kind {
		case KindFuncPtrSameClass:
			return a.Origin != OriginStack // stack copies moved to the safe stack
		case KindFuncPtrUnsafeLocal:
			return true
		case KindRetDisclosure:
			return true
		}
		return false
	case compiler.CCFI, compiler.HQRetPtr:
		return false
	case compiler.CPI:
		return a.Kind == KindRetDisclosure || a.Kind == KindRetLinear
	case compiler.HQSfeStk:
		return a.Kind == KindRetDisclosure
	default:
		return false
	}
}

// ExpectedTable computes the predicted Table 5 row for a design.
func ExpectedTable(d compiler.Design) *Table {
	t := &Table{Design: d, ByOrgin: make(map[Origin]int)}
	for _, a := range Suite() {
		if Expected(a, d) {
			t.ByOrgin[a.Origin]++
			t.Total++
		}
	}
	return t
}
