package experiments

import (
	"fmt"
	"slices"
	"strings"

	"herqules/internal/compiler"
	"herqules/internal/ripe"
	"herqules/internal/sim"
	"herqules/internal/workload"
)

// Table5 executes the RIPE suite under every design. quick keeps one variant
// per (origin, kind): the harness path without the 954×6 runs that
// internal/ripe's own test already makes.
func Table5(quick bool) ([]*ripe.Table, error) {
	attacks := ripe.Suite()
	if quick {
		attacks = slices.DeleteFunc(attacks, func(a ripe.Attack) bool { return a.Variant != 0 })
	}
	var out []*ripe.Table
	for _, d := range []compiler.Design{
		compiler.Baseline, compiler.ClangCFI, compiler.CCFI, compiler.CPI,
		compiler.HQSfeStk, compiler.HQRetPtr,
	} {
		t, err := ripe.RunSuite(d, attacks)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// FormatTable5 renders the effectiveness table like the paper's Table 5.
func FormatTable5(tables []*ripe.Table) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %6s %6s %6s %6s %7s\n", "Design", "BSS", "Data", "Heap", "Stack", "Total")
	for _, t := range tables {
		fmt.Fprintf(&sb, "%-16s %6d %6d %6d %6d %7d\n",
			t.Design,
			t.ByOrgin[ripe.OriginBSS], t.ByOrgin[ripe.OriginData],
			t.ByOrgin[ripe.OriginHeap], t.ByOrgin[ripe.OriginStack], t.Total)
	}
	return sb.String()
}

// Metrics reproduces the §5.4 message-rate and verifier-memory statistics
// under HQ-CFI-SfeStk-MODEL. Rates are messages per modelled second (cycles
// divided by the 5 GHz clock).
type Metrics struct {
	MedianMsgPerSec  float64
	GeoMeanMsgPerSec float64
	MaxMsgPerSec     float64
	MaxMsgBenchmark  string
	MaxTotalMessages uint64
	TotalMsgBench    string
	MaxEntries       int
	MedianEntries    float64
	MeanEntries      float64
	ZeroEntryBenches int
}

// CollectMetrics runs every benchmark under HQ-CFI-SfeStk-MODEL and gathers
// the per-benchmark statistics.
func CollectMetrics(scale workload.Scale) *Metrics {
	m := &Metrics{}
	cost := PrimModel.costModel()
	var rates, entries []float64
	for _, p := range workload.All() {
		r := execute(p, compiler.HQSfeStk, cost, scale)
		if r.Outcome == nil || r.Outcome.Err != nil {
			continue
		}
		out := r.Outcome
		seconds := float64(out.Stats.Cycles) / (sim.CyclesPerNano * 1e9)
		if seconds <= 0 {
			continue
		}
		rate := float64(out.Stats.Messages) / seconds
		rates = append(rates, rate)
		if rate > m.MaxMsgPerSec {
			m.MaxMsgPerSec = rate
			m.MaxMsgBenchmark = p.DisplayName()
		}
		if out.Stats.Messages > m.MaxTotalMessages {
			m.MaxTotalMessages = out.Stats.Messages
			m.TotalMsgBench = p.DisplayName()
		}
		entries = append(entries, float64(out.MaxEntries))
		if out.MaxEntries > m.MaxEntries {
			m.MaxEntries = out.MaxEntries
		}
		if out.MaxEntries == 0 {
			m.ZeroEntryBenches++
		}
	}
	m.MedianMsgPerSec = Median(rates)
	m.GeoMeanMsgPerSec = GeoMean(rates)
	m.MedianEntries = Median(entries)
	var sum float64
	for _, e := range entries {
		sum += e
	}
	if len(entries) > 0 {
		m.MeanEntries = sum / float64(len(entries))
	}
	return m
}

// FormatMetrics renders the §5.4 statistics.
func (m *Metrics) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "message rate (msgs per modelled second):\n")
	fmt.Fprintf(&sb, "  median  %.3g\n  geomean %.3g\n  max     %.3g (%s)\n",
		m.MedianMsgPerSec, m.GeoMeanMsgPerSec, m.MaxMsgPerSec, m.MaxMsgBenchmark)
	fmt.Fprintf(&sb, "total messages: max %d (%s)\n", m.MaxTotalMessages, m.TotalMsgBench)
	fmt.Fprintf(&sb, "verifier entries (16-byte pointer-value pairs):\n")
	fmt.Fprintf(&sb, "  max %d, median %.0f, mean %.1f, zero-entry benchmarks %d\n",
		m.MaxEntries, m.MedianEntries, m.MeanEntries, m.ZeroEntryBenches)
	return sb.String()
}
