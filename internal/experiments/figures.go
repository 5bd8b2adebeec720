package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"herqules/internal/compiler"
	"herqules/internal/workload"
)

// Series is one line/bar-group of a performance figure: relative performance
// (baseline time / configuration time) per benchmark, plus the geometric
// mean over included benchmarks. Benchmarks whose run under this
// configuration crashed or produced invalid output are excluded, as in the
// paper ("we omit measurements for benchmarks that encounter errors or
// produce invalid output, but not if only false positives are emitted").
type Series struct {
	Label    string
	Rel      map[string]float64 // display name -> relative performance
	Excluded []string           // benchmarks omitted (errors/invalid)
	GeoMean  float64
	// SPECGeoMean and NginxRel split the overall numbers as §5.3.2 does.
	SPECGeoMean float64
	NginxRel    float64
}

// measureBaseline runs every benchmark uninstrumented under the primitive's
// cost model and returns cycles by benchmark name.
func measureBaseline(prim Primitive, scale workload.Scale) map[string]uint64 {
	out := make(map[string]uint64)
	cost := prim.costModel()
	for _, p := range workload.All() {
		r := execute(p, compiler.Baseline, cost, scale)
		if r.Outcome != nil && r.Outcome.Err == nil {
			out[p.Name] = r.Cycles
		}
	}
	return out
}

// series measures one (design, primitive) configuration against baseline.
func series(label string, d compiler.Design, prim Primitive,
	scale workload.Scale, baseline map[string]uint64, baseOut map[string][]uint64) *Series {
	s := &Series{Label: label, Rel: make(map[string]float64)}
	cost := prim.costModel()
	var specRels []float64
	for _, p := range workload.All() {
		base, ok := baseline[p.Name]
		if !ok || base == 0 {
			continue
		}
		if modeledCrash(p, d) {
			s.Excluded = append(s.Excluded, p.DisplayName())
			continue
		}
		r := execute(p, d, cost, scale)
		if r.Err != nil || r.Outcome == nil || r.Outcome.Err != nil || r.Outcome.Killed ||
			!slices.Equal(r.Outcome.Output, baseOut[p.Name]) {
			s.Excluded = append(s.Excluded, p.DisplayName())
			continue
		}
		rel := float64(base) / float64(r.Cycles)
		s.Rel[p.DisplayName()] = rel
		if p.Suite == "NGINX" {
			s.NginxRel = rel
		} else {
			specRels = append(specRels, rel)
		}
	}
	var all []float64
	for _, v := range s.Rel {
		all = append(all, v)
	}
	s.GeoMean = GeoMean(all)
	s.SPECGeoMean = GeoMean(specRels)
	return s
}

// referenceOutputs collects baseline outputs for validity comparison. CCFI's
// x87 output perturbation marks those benchmarks invalid, matching the
// paper's exclusion of invalid runs from the performance figures.
func referenceOutputs(scale workload.Scale) map[string][]uint64 {
	out := make(map[string][]uint64)
	for _, p := range workload.All() {
		r := execute(p, compiler.Baseline, nil, scale)
		if r.Outcome != nil {
			out[p.Name] = r.Outcome.Output
		}
	}
	return out
}

// Figure3 compares IPC primitives under HQ-CFI-SfeStk (§5.3.1): software
// message queues vs AppendWrite-FPGA vs the AppendWrite-µarch model.
func Figure3(scale workload.Scale) []*Series {
	baseOut := referenceOutputs(scale)
	var out []*Series
	for _, prim := range []Primitive{PrimMQ, PrimFPGA, PrimModel} {
		baseline := measureBaseline(prim, scale)
		out = append(out, series(
			fmt.Sprintf("HQ-CFI-SfeStk-%s", prim),
			compiler.HQSfeStk, prim, scale, baseline, baseOut))
	}
	return out
}

// Figure4 compares the software model against the hardware simulation of
// AppendWrite-µarch on the train input (§5.3.1). The SIM series counts
// userspace cycles only, mirroring ZSim's metric; NGINX is omitted because
// it is dominated by system calls, exactly as the paper does.
func Figure4() []*Series {
	scale := workload.ScaleTrain
	baseOut := referenceOutputs(scale)
	var out []*Series
	for _, prim := range []Primitive{PrimModel, PrimSim} {
		baseline := measureBaseline(prim, scale)
		s := series(
			fmt.Sprintf("HQ-CFI-SfeStk-%s-Train", prim),
			compiler.HQSfeStk, prim, scale, baseline, baseOut)
		delete(s.Rel, "nginx")
		s.NginxRel = 0
		s.GeoMean = s.SPECGeoMean // NGINX was the only non-SPEC benchmark
		out = append(out, s)
	}
	return out
}

// Figure5 compares all CFI designs under the AppendWrite-µarch model
// (§5.3.2).
func Figure5(scale workload.Scale) []*Series {
	baseOut := referenceOutputs(scale)
	baseline := measureBaseline(PrimModel, scale)
	configs := []struct {
		label string
		d     compiler.Design
	}{
		{"HQ-CFI-SfeStk-MODEL", compiler.HQSfeStk},
		{"HQ-CFI-RetPtr-MODEL", compiler.HQRetPtr},
		{"Clang/LLVM CFI", compiler.ClangCFI},
		{"CCFI", compiler.CCFI},
		{"CPI", compiler.CPI},
	}
	var out []*Series
	for _, c := range configs {
		out = append(out, series(c.label, c.d, PrimModel, scale, baseline, baseOut))
	}
	return out
}

// FormatSeries renders figure series as a text table sorted by the first
// series' relative performance (as the paper sorts its figures).
func FormatSeries(series []*Series) string {
	if len(series) == 0 {
		return ""
	}
	names := make([]string, 0, len(series[0].Rel))
	for n := range series[0].Rel {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		return series[0].Rel[names[i]] < series[0].Rel[names[j]]
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s", "benchmark")
	for _, s := range series {
		fmt.Fprintf(&sb, " %22s", s.Label)
	}
	sb.WriteByte('\n')
	for _, n := range names {
		fmt.Fprintf(&sb, "%-14s", n)
		for _, s := range series {
			if v, ok := s.Rel[n]; ok {
				fmt.Fprintf(&sb, " %22s", fmtPct(v))
			} else {
				fmt.Fprintf(&sb, " %22s", "excluded")
			}
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%-14s", "geomean")
	for _, s := range series {
		fmt.Fprintf(&sb, " %22s", fmtPct(s.GeoMean))
	}
	sb.WriteByte('\n')
	return sb.String()
}
