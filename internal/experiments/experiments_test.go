package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"herqules/internal/compiler"
	"herqules/internal/policy"
	"herqules/internal/ripe"
	"herqules/internal/workload"
)

func TestTable2ShapeAndProperties(t *testing.T) {
	rows := Table2(2000)
	if len(rows) < 6 {
		t.Fatalf("Table 2 has %d rows", len(rows))
	}
	byName := map[string]IPCRow{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.MeasuredNanos <= 0 {
			t.Errorf("%s: non-positive measured cost", r.Name)
		}
	}
	// Paper-cost ordering: shm < µarch model... the table carries the
	// paper's numbers; verify the suitability column.
	if byName["Shared Memory"].AppendOnly {
		t.Error("shared memory marked append-only")
	}
	if !byName["AppendWrite-FPGA"].AppendOnly || !byName["AppendWrite-FPGA"].AsyncValidation {
		t.Error("AppendWrite-FPGA must satisfy both requirements")
	}
	if byName["Message Queue"].AsyncValidation {
		t.Error("message queue marked async")
	}
	// The kernel-backed primitives must measure slower than the shared
	// ring on any host.
	if byName["Message Queue"].MeasuredNanos <= byName["Shared Memory"].MeasuredNanos {
		t.Errorf("measured mq (%.1fns) not slower than shm (%.1fns)",
			byName["Message Queue"].MeasuredNanos, byName["Shared Memory"].MeasuredNanos)
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "AppendWrite") {
		t.Error("formatted table missing AppendWrite rows")
	}
}

func TestTable4MatchesPaperCounts(t *testing.T) {
	rows := Table4(workload.ScaleTest)
	byLabel := map[string]CorrectnessRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	// Paper's Table 4, with one documented deviation: we count crashed
	// runs as also lacking valid output, so CCFI's Invalid is its 9
	// perturbed-output benchmarks plus its 12 crashes.
	want := map[string][4]int{ // errors, FPs, invalid, OK
		"Baseline":       {0, 0, 0, 48},
		"Baseline-CCFI":  {2, 0, 2, 46},
		"Baseline-CPI":   {2, 0, 2, 46},
		"Clang/LLVM CFI": {0, 15, 0, 33},
		"CCFI":           {12, 29, 21, 19},
		"CPI":            {14, 0, 14, 34},
		"HQ-CFI":         {0, 0, 0, 48},
	}
	for label, w := range want {
		r, ok := byLabel[label]
		if !ok {
			t.Errorf("missing row %s", label)
			continue
		}
		got := [4]int{r.Errors, r.FalsePositives, r.Invalid, r.OK}
		if got != w {
			t.Errorf("%s: got E/FP/I/OK = %v, want %v", label, got, w)
		}
	}
	if byLabel["HQ-CFI"].Detected != 2 {
		t.Errorf("HQ-CFI detected %d real bugs, want the 2 omnetpp UAFs",
			byLabel["HQ-CFI"].Detected)
	}
	if s := FormatTable4(rows); !strings.Contains(s, "HQ-CFI") {
		t.Error("formatting lost rows")
	}
}

func TestFigure5ShapeTrain(t *testing.T) {
	if testing.Short() {
		t.Skip("performance sweep")
	}
	series := Figure5(workload.ScaleTrain)
	g := map[string]float64{}
	nginx := map[string]float64{}
	excl := map[string]int{}
	for _, s := range series {
		g[s.Label] = s.SPECGeoMean
		nginx[s.Label] = s.NginxRel
		excl[s.Label] = len(s.Excluded)
	}
	sfestk, retptr := g["HQ-CFI-SfeStk-MODEL"], g["HQ-CFI-RetPtr-MODEL"]
	clang, ccfi, cpi := g["Clang/LLVM CFI"], g["CCFI"], g["CPI"]
	// Paper orderings (§5.3.2): CPI and Clang fastest, then SfeStk, then
	// RetPtr and CCFI slowest, with CCFI below RetPtr on ref inputs.
	if !(cpi > sfestk && clang > sfestk) {
		t.Errorf("CPI (%.2f) and Clang (%.2f) must beat SfeStk (%.2f)", cpi, clang, sfestk)
	}
	if !(sfestk > retptr) {
		t.Errorf("SfeStk (%.2f) must beat RetPtr (%.2f)", sfestk, retptr)
	}
	if !(sfestk > ccfi) {
		t.Errorf("SfeStk (%.2f) must beat CCFI (%.2f)", sfestk, ccfi)
	}
	for l, v := range g {
		if v <= 0.05 || v >= 1.02 {
			t.Errorf("%s: implausible relative performance %.3f", l, v)
		}
	}
	// CPI and CCFI exclude their crashing benchmarks, skewing their means
	// upward exactly as the paper warns.
	if excl["CPI"] != 14 {
		t.Errorf("CPI excluded %d, want 14", excl["CPI"])
	}
	if excl["CCFI"] != 21 {
		t.Errorf("CCFI excluded %d, want 21 (12 crashes + 9 invalid)", excl["CCFI"])
	}
	// NGINX: every design loses throughput; HQ designs lose the most
	// after CCFI (§5.3.2's 79/62/97/78/96 pattern).
	if !(nginx["Clang/LLVM CFI"] > nginx["HQ-CFI-SfeStk-MODEL"]) {
		t.Error("nginx: Clang must beat SfeStk")
	}
	if !(nginx["HQ-CFI-SfeStk-MODEL"] > nginx["HQ-CFI-RetPtr-MODEL"]) {
		t.Error("nginx: SfeStk must beat RetPtr")
	}
}

func TestFigure3Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("performance sweep")
	}
	series := Figure3(workload.ScaleTrain)
	if len(series) != 3 {
		t.Fatalf("%d series", len(series))
	}
	mq, fpgaS, model := series[0], series[1], series[2]
	// §5.3.1: software IPC is far slower than AppendWrite; the FPGA sits
	// between the message queue and the µarch model.
	if !(mq.GeoMean < fpgaS.GeoMean && fpgaS.GeoMean < model.GeoMean) {
		t.Errorf("ordering violated: MQ=%.2f FPGA=%.2f MODEL=%.2f",
			mq.GeoMean, fpgaS.GeoMean, model.GeoMean)
	}
	if mq.GeoMean > 0.6 {
		t.Errorf("MQ geomean %.2f: software IPC should lose heavily", mq.GeoMean)
	}
	if model.GeoMean < 0.6 {
		t.Errorf("MODEL geomean %.2f: AppendWrite model should be fast", model.GeoMean)
	}
}

func TestFigure4ModelVsSim(t *testing.T) {
	if testing.Short() {
		t.Skip("performance sweep")
	}
	series := Figure4()
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	model, simS := series[0], series[1]
	// §5.3.1: actual hardware performance lies between the software model
	// (lower bound) and the simulator (upper bound): SIM > MODEL.
	if !(simS.GeoMean > model.GeoMean) {
		t.Errorf("SIM (%.2f) must beat MODEL (%.2f)", simS.GeoMean, model.GeoMean)
	}
	// NGINX is omitted from the simulator comparison.
	if _, ok := model.Rel["nginx"]; ok {
		t.Error("nginx present in Figure 4 series")
	}
	if s := FormatSeries(series); !strings.Contains(s, "geomean") {
		t.Error("series formatting broken")
	}
}

func TestModelRefVsTrainDensity(t *testing.T) {
	if testing.Short() {
		t.Skip("performance sweep")
	}
	// §5.3.1: the ref input is more compute-dense, so per-message overhead
	// has less impact — MODEL-ref outperforms MODEL-train relative to
	// their own baselines.
	baseOutRef := referenceOutputs(workload.ScaleRef)
	baseRef := measureBaseline(PrimModel, workload.ScaleRef)
	refSeries := series("ref", compiler.HQSfeStk, PrimModel, workload.ScaleRef, baseRef, baseOutRef)
	trainSeries := Figure4()[0]
	if !(refSeries.SPECGeoMean > trainSeries.GeoMean) {
		t.Errorf("MODEL-ref (%.2f) should beat MODEL-train (%.2f)",
			refSeries.SPECGeoMean, trainSeries.GeoMean)
	}
}

func TestTable5SampledAgainstPrediction(t *testing.T) {
	// The full suite runs in ripe's own long test; sample one attack per
	// (origin, kind) here for the harness path.
	seen := map[string]bool{}
	for _, a := range ripe.Suite() {
		key := a.Origin.String() + a.Kind.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		got, err := ripe.Execute(a, compiler.HQSfeStk)
		if err != nil {
			t.Fatal(err)
		}
		if got != ripe.Expected(a, compiler.HQSfeStk) {
			t.Errorf("%s: outcome mismatch", a.Name())
		}
	}
	// Formatting over predicted tables.
	tabs := []*ripe.Table{ripe.ExpectedTable(compiler.Baseline), ripe.ExpectedTable(compiler.HQSfeStk)}
	if s := FormatTable5(tabs); !strings.Contains(s, "954") {
		t.Errorf("Table 5 formatting missing baseline total:\n%s", s)
	}
}

func TestMetricsReport(t *testing.T) {
	m := CollectMetrics(workload.ScaleTest)
	if m.MaxMsgPerSec <= m.MedianMsgPerSec {
		t.Error("max message rate not above median")
	}
	if m.MaxEntries <= 0 {
		t.Error("no verifier entries recorded")
	}
	if m.MaxMsgBenchmark == "" || m.TotalMsgBench == "" {
		t.Error("missing benchmark attributions")
	}
	if s := m.Format(); !strings.Contains(s, "median") {
		t.Error("metrics formatting broken")
	}
}

// TestTable6Counts walks the real module: Table6 itself fails on a directory
// of Go source that no component claims, so this is also the check that
// table6Components has kept up with the tree.
func TestTable6Counts(t *testing.T) {
	rep, err := Table6("../..")
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, c := range rep.Components {
		if c.Code == 0 {
			t.Errorf("component %q counts no code", c.Label)
		}
		sum += c.Code
	}
	if sum != rep.TotalCode {
		t.Errorf("components sum to %d, total says %d", sum, rep.TotalCode)
	}
	if rep.PhysicalLines <= rep.TotalCode {
		t.Errorf("physical lines %d not above code lines %d", rep.PhysicalLines, rep.TotalCode)
	}
	out := rep.Format()
	if !strings.Contains(out, "Compiler") || !strings.Contains(out, "Total") {
		t.Errorf("Table 6 output malformed:\n%s", out)
	}
}

func TestTable6RejectsUnclaimedDirectory(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/ipc/a.go", "package ipc\n\n// comment\nvar A = 1\n")
	write("internal/ipc/a_test.go", "package ipc\n")
	write("bench/b.go", "package main\n")
	write("examples/demo/c.go", "package main\n\nfunc main() {}\n")
	rep, err := Table6(root)
	if err != nil {
		t.Fatalf("bench/ and examples/ are not components and must not be errors: %v", err)
	}
	if rep.TotalCode != 2 || rep.TotalTests != 1 {
		t.Errorf("code/tests = %d/%d, want 2/1", rep.TotalCode, rep.TotalTests)
	}
	if rep.PhysicalLines != 4+3 { // a.go + examples/demo/c.go; bench/ is not counted
		t.Errorf("physical lines = %d, want 7", rep.PhysicalLines)
	}

	write("internal/newpkg/d.go", "package newpkg\n")
	if _, err := Table6(root); err == nil || !strings.Contains(err.Error(), "internal/newpkg") {
		t.Errorf("unclaimed directory not reported: %v", err)
	}
}

func TestGeoMeanAndMedian(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); g < 1.99 || g > 2.01 {
		t.Errorf("GeoMean = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %v", g)
	}
	if g := GeoMean([]float64{0, -1, 8, 2}); g != 4 {
		t.Errorf("GeoMean skipping nonpositive = %v", g)
	}
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("Median odd = %v", m)
	}
	if m := Median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("Median even = %v", m)
	}
}

func TestStatsSmoke(t *testing.T) {
	r := Stats(2, 4096)
	if r.Procs != 2 {
		t.Errorf("Procs = %d", r.Procs)
	}
	snap := r.Snap
	if snap.Counters["verifier.messages"].Total == 0 {
		t.Error("no messages delivered")
	}
	if snap.Counters["ipc.sends"].Total == 0 {
		t.Error("no ipc sends counted")
	}
	// The deliberate violation on proc 0 must surface as exactly one kill
	// and at least one post-kill drop.
	if v := snap.Counters["verifier.kills"].Total; v != 1 {
		t.Errorf("verifier.kills = %d, want 1", v)
	}
	if snap.Counters["verifier.violations"].Total != 1 {
		t.Errorf("violations = %d, want 1", snap.Counters["verifier.violations"].Total)
	}
	if snap.Histograms["kernel.syscall_stall_ns"].Count == 0 {
		t.Error("no syscall stalls observed")
	}
	if snap.Histograms["verifier.batch_size"].Count == 0 {
		t.Error("no batch sizes observed")
	}
	out := FormatStats(r)
	for _, want := range []string{
		"msgs/sec",
		"kernel.syscall_stall_ns",
		"verifier.messages",
		"verifier.batch_size",
		"ipc.sends",
		"ipc.recvs",
		"verifier.pump_stall_ns",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatStats output missing %q", want)
		}
	}
}

// TestEveryExperimentRunsQuick is the smoke run of the whole hqbench table:
// every entry, at the smoke scope, must succeed and hand back a report that
// -out could write. Entries run one after another — Chaos and HQD compare
// runtime.NumGoroutine() against a baseline taken at entry.
func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment, soaks and model checker included")
	}
	cfg := Config{Scale: workload.ScaleTest, Msgs: 50000, Procs: 6, Seed: 0xda0517, Quick: true}
	seen := map[string]bool{}
	for _, e := range All {
		if seen[e.Name] || e.Name == "all" || e.Title == "" {
			t.Errorf("entry %q: duplicate or reserved name, or no title", e.Name)
		}
		seen[e.Name] = true
		t.Run(e.Name, func(t *testing.T) {
			rep, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%v\n%s", err, rep.Text)
			}
			if rep.Text == "" {
				t.Error("empty report text")
			}
			if _, err := json.Marshal(rep.Data); err != nil {
				t.Errorf("report data does not marshal: %v", err)
			}
		})
	}
}

// TestPolicyMatrixCatchesFlippedContract proves the matrix can fail: with
// any one caughtBy entry flipped, the cell it belongs to reports an error.
func TestPolicyMatrixCatchesFlippedContract(t *testing.T) {
	for _, inj := range policyInjectors() {
		for _, name := range policy.Names() {
			if _, err := runMatrixCell(name, inj); err != nil {
				t.Errorf("unflipped: %v", err)
			}
			flipped := inj
			flipped.caughtBy = map[string]bool{name: !inj.caughtBy[name]}
			if _, err := runMatrixCell(name, flipped); err == nil {
				t.Errorf("%s/%s: flipped contract (caught=%t) passed", name, inj.name, !inj.caughtBy[name])
			}
		}
	}
}
