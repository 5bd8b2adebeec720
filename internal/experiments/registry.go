package experiments

import (
	"fmt"

	"herqules/internal/workload"
)

// Config carries the hqbench flags to an experiment. Each experiment reads
// the fields it has a use for and ignores the rest.
type Config struct {
	Scale workload.Scale // input scale of the benchmark-suite experiments
	Msgs  int            // messages for the stats measurement
	Procs int            // concurrent monitored processes (stats, chaos, hqd)
	Seed  uint64         // fault-schedule seed (chaos, hqd)
	Quick bool           // smoke scope: smaller soaks, sampled RIPE suite, no 3-process model check
}

// Report is what one experiment produced: Text is printed, Data is what
// `hqbench -out` marshals (nil for experiments whose result is only prose).
// An experiment that fails still returns the text it has, so a failing
// matrix or soak shows how far it got.
type Report struct {
	Text string
	Data any
}

// Experiment is one entry of the hqbench table.
type Experiment struct {
	Name  string
	Title string
	Run   func(Config) (Report, error)
}

// All is every experiment hqbench can run, in print order: the paper's
// tables and figures (§5), then this reproduction's telemetry snapshot and
// its correctness soaks. Performance figures are not here — `go run ./bench`
// takes every one of them (EXPERIMENTS.md "Performance").
var All = []Experiment{
	{"table2", "Table 2: IPC primitive send costs", func(Config) (Report, error) {
		rows := Table2(20000)
		return Report{FormatTable2(rows), rows}, nil
	}},
	{"table4", "Table 4: correctness of CFI designs (48 benchmarks)", func(c Config) (Report, error) {
		rows := Table4(c.Scale)
		return Report{atScale(c.Scale, FormatTable4(rows)), rows}, nil
	}},
	{"table5", "Table 5: successful RIPE exploits by overflow origin (954 attacks)", func(c Config) (Report, error) {
		tabs, err := Table5(c.Quick)
		if err != nil {
			return Report{}, err
		}
		text := FormatTable5(tabs)
		if c.Quick {
			text = "quick: one variant per (origin, kind), not the 954\n" + text
		}
		return Report{text, tabs}, nil
	}},
	{"fig3", "Figure 3: HQ-CFI-SfeStk relative performance per IPC primitive", func(c Config) (Report, error) {
		s := Figure3(c.Scale)
		return Report{atScale(c.Scale, FormatSeries(s)), s}, nil
	}},
	{"fig4", "Figure 4: AppendWrite-µarch software model vs simulator (train input)", func(Config) (Report, error) {
		s := Figure4()
		return Report{FormatSeries(s), s}, nil
	}},
	{"fig5", "Figure 5: relative performance of CFI designs", func(c Config) (Report, error) {
		s := Figure5(c.Scale)
		return Report{atScale(c.Scale, FormatSeries(s)), s}, nil
	}},
	{"table6", "Table 6: size of HerQules-Go, in lines of code", func(Config) (Report, error) {
		root, err := moduleRoot()
		if err != nil {
			return Report{}, err
		}
		rep, err := Table6(root)
		if err != nil {
			return Report{}, err
		}
		return Report{rep.Format(), rep}, nil
	}},
	{"metrics", "§5.4 metrics under HQ-CFI-SfeStk-MODEL", func(c Config) (Report, error) {
		m := CollectMetrics(c.Scale)
		return Report{atScale(c.Scale, m.Format()), m}, nil
	}},
	{"stats", "Component telemetry: kernel gate, verifier shards, IPC channels", func(c Config) (Report, error) {
		r := Stats(c.Procs, c.Msgs)
		return Report{FormatStats(r), r}, nil
	}},
	{"chaos", "Chaos soak: seeded fault injection across the IPC → verifier → kernel path", Chaos},
	{"verify", "Gate-protocol model checking: exhaustive small-scope exploration", Verify},
	{"policies", "Policy registry: fault-detection matrix with kill attribution and postmortems", Policies},
	{"hqd", "Networked attestation plane soak: fail-closed connection lifecycle", HQD},
}

// atScale heads a benchmark-suite report with the input scale it ran at.
func atScale(scale workload.Scale, text string) string {
	return fmt.Sprintf("input: %s\n", scale) + text
}
