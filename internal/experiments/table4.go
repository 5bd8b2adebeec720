package experiments

import (
	"fmt"
	"slices"
	"strings"

	"herqules/internal/compiler"
	"herqules/internal/workload"
)

// CorrectnessRow is one row of Table 4.
type CorrectnessRow struct {
	Label          string
	Errors         int // crashes or hangs
	FalsePositives int // policy violations with no actual CFI violation
	Invalid        int // incorrect output
	OK             int // clean runs
	// Detected counts true-positive bug detections (HQ's omnetpp
	// use-after-free findings, §5.2) — not part of the paper's table but
	// reported alongside it.
	Detected int
}

// Table4 executes all 48 benchmarks under each design and classifies the
// runs. The categories are not mutually exclusive (a crash also yields no
// valid output), exactly as the paper notes.
func Table4(scale workload.Scale) []CorrectnessRow {
	benchmarks := workload.All()
	baseOut := referenceOutputs(scale) // from the modern-compiler baseline
	return []CorrectnessRow{
		classifyBaseline("Baseline", benchmarks, baseOut, scale, false),
		classifyBaseline("Baseline-CCFI", benchmarks, baseOut, scale, true),
		classifyBaseline("Baseline-CPI", benchmarks, baseOut, scale, true),
		classify("Clang/LLVM CFI", compiler.ClangCFI, benchmarks, baseOut, scale),
		classify("CCFI", compiler.CCFI, benchmarks, baseOut, scale),
		classify("CPI", compiler.CPI, benchmarks, baseOut, scale),
		classify("HQ-CFI", compiler.HQSfeStk, benchmarks, baseOut, scale),
	}
}

// classifyBaseline builds the baseline rows. The old-compiler baselines
// (those CCFI and CPI are built on) crash on the two benchmarks carrying the
// shared old-LLVM bug (§5.1).
func classifyBaseline(label string, benchmarks []*workload.Profile,
	baseOut map[string][]uint64, scale workload.Scale, oldCompiler bool) CorrectnessRow {
	row := CorrectnessRow{Label: label}
	for _, p := range benchmarks {
		if oldCompiler && p.OldCompilerBug {
			row.Errors++
			row.Invalid++
			continue
		}
		r := execute(p, compiler.Baseline, nil, scale)
		classifyRun(&row, p, r, baseOut[p.Name], compiler.Baseline)
	}
	return row
}

func classify(label string, d compiler.Design, benchmarks []*workload.Profile,
	baseOut map[string][]uint64, scale workload.Scale) CorrectnessRow {
	row := CorrectnessRow{Label: label}
	for _, p := range benchmarks {
		if modeledCrash(p, d) {
			row.Errors++
			row.Invalid++
			// CCFI's reserved-register crashes also manifest as false
			// positives before dying when casts are present; the paper
			// counts those benchmarks in both columns (categories are
			// not mutually exclusive, and the FP union covers them).
			if d == compiler.CCFI && (p.CastAtCall || p.CastAtStore) {
				row.FalsePositives++
			}
			continue
		}
		r := execute(p, d, nil, scale)
		classifyRun(&row, p, r, baseOut[p.Name], d)
	}
	return row
}

// classifyRun sorts one run into the Table 4 categories.
func classifyRun(row *CorrectnessRow, p *workload.Profile, r *Run, want []uint64, d compiler.Design) {
	if r.Err != nil || r.Outcome == nil || r.Outcome.Err != nil || r.Outcome.Killed {
		row.Errors++
		row.Invalid++
		return
	}
	out := r.Outcome
	violations := out.Violations + len(out.PolicyViolations)
	trueBug := p.UAFBug && d.IsHQ() // HQ's omnetpp findings are real bugs
	bad := false
	if violations > 0 {
		if trueBug {
			row.Detected++
		} else {
			row.FalsePositives++
			bad = true
		}
	}
	if !slices.Equal(out.Output, want) {
		row.Invalid++
		bad = true
	}
	if !bad {
		row.OK++
	}
}

// FormatTable4 renders the rows like the paper's Table 4.
func FormatTable4(rows []CorrectnessRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %7s %16s %8s %4s %9s\n",
		"Design", "Errors", "False Positives", "Invalid", "OK", "Detected")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %7d %16d %8d %4d %9d\n",
			r.Label, r.Errors, r.FalsePositives, r.Invalid, r.OK, r.Detected)
	}
	return sb.String()
}
