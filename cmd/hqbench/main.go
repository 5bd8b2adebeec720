// Command hqbench regenerates the paper's tables and figures from this
// reproduction's substrates, and runs its correctness soaks. The experiments
// are the entries of experiments.All; `hqbench -h` lists them.
//
// Usage:
//
//	hqbench -exp NAME           # one experiment
//	hqbench -exp all            # every experiment (slow: includes 954x6 RIPE runs)
//	hqbench -scale test|train|ref (default ref)
//	hqbench -msgs N             # messages for the stats measurement
//	hqbench -procs N            # concurrent monitored processes for stats/chaos/hqd
//	hqbench -seed N             # fault-schedule seed for the chaos and hqd soaks
//	hqbench -quick              # smoke scope: smaller soaks, sampled RIPE suite, no 3-process model check
//	hqbench -out FILE           # also write the named experiment's report as JSON
//
// Performance is measured by `go run ./bench`, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"herqules/internal/experiments"
	"herqules/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs named: it parses args, runs the
// selected experiments in table order, prints each report, and returns the
// exit status (2 for a usage error, 1 for a failed experiment).
func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, e := range experiments.All {
		names = append(names, e.Name)
	}
	list := strings.Join(names, ", ")

	fs := flag.NewFlagSet("hqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run: "+list+", all")
	scaleFlag := fs.String("scale", "ref", "input scale for the benchmark-suite experiments: test, train, ref")
	msgs := fs.Int("msgs", 1<<20, "messages for the stats measurement")
	procs := fs.Int("procs", 8, "concurrent monitored processes for the stats, chaos and hqd experiments")
	seed := fs.Uint64("seed", 0xda0517, "fault-schedule seed for the chaos and hqd soaks")
	quick := fs.Bool("quick", false, "smoke scope: smaller soaks, sampled RIPE suite, no 3-process model check")
	outFile := fs.String("out", "", "write the report of the one experiment named by -exp as JSON to this file")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage: hqbench [flags]\n\nExperiments (-exp):")
		for _, e := range experiments.All {
			fmt.Fprintf(stderr, "  %-9s %s\n", e.Name, e.Title)
		}
		fmt.Fprintln(stderr, "  all       every experiment above, in that order (slow)\n\nFlags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	cfg := experiments.Config{Msgs: *msgs, Procs: *procs, Seed: *seed, Quick: *quick}
	switch *scaleFlag {
	case "test":
		cfg.Scale = workload.ScaleTest
	case "train":
		cfg.Scale = workload.ScaleTrain
	case "ref":
		cfg.Scale = workload.ScaleRef
	default:
		fmt.Fprintf(stderr, "unknown scale %q\n", *scaleFlag)
		return 2
	}

	selected := experiments.All
	if *exp != "all" {
		selected = nil
		for _, e := range experiments.All {
			if e.Name == *exp {
				selected = []experiments.Experiment{e}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "unknown experiment %q (have: %s, all)\n", *exp, list)
			return 2
		}
	}
	if *outFile != "" && len(selected) != 1 {
		fmt.Fprintln(stderr, "-out needs exactly one experiment named by -exp")
		return 2
	}

	for _, e := range selected {
		fmt.Fprintf(stdout, "\n%s\n%s\n", e.Title, strings.Repeat("=", len(e.Title)))
		rep, err := e.Run(cfg)
		fmt.Fprint(stdout, rep.Text)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if *outFile == "" {
			continue
		}
		if rep.Data == nil {
			fmt.Fprintf(stderr, "-out: experiment %s has no JSON report\n", e.Name)
			return 2
		}
		// Indented with a trailing newline: the BENCH_*.json convention.
		data, err := json.MarshalIndent(rep.Data, "", "  ")
		if err == nil {
			err = os.WriteFile(*outFile, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *outFile)
	}
	return 0
}
