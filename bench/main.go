// Command bench is the repository's end-to-end and per-layer benchmark for
// the path a real client takes: SealSender → hqnet wire → session queue →
// arena → shard → policy chain → gate release, next to the local SharedRing
// path. See README.md in this directory and BENCHMARK.json at the module
// root.
//
//	go run ./bench                          # all four workloads, end to end
//	go run ./bench -workload net_gate       # one workload
//	go run ./bench -trace 1                 # the per-layer ledger and span file
//	go run ./bench -quick                   # tiny counts, every check still runs
//	go run ./bench -repeat 2                # two suites, differences against bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// defaultSeed and defaultSeconds are what a run that names neither uses;
// defaultSeconds is BENCHMARK.json's run_seconds.
const (
	defaultSeed    = 1
	defaultSeconds = 26
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == keepAwakeFlag {
		spinIdle()
	}
	workload := flag.String("workload", "all", "workload to run: net_stream, net_gate, ring_stream, ring_policy, or all")
	seed := flag.Uint64("seed", defaultSeed, "seed of every generated stream and schedule")
	seconds := flag.Int("seconds", defaultSeconds, "seconds of measurement the rep sizes are derived from")
	trace := flag.Int("trace", 0, "1: run the per-layer ledger with tracing on (end-to-end numbers are always taken with tracing off)")
	quick := flag.Bool("quick", false, "tiny counts; every correctness check still runs")
	repeat := flag.Int("repeat", 0, "run the whole suite this many times (at least 2) and compare the runs against each metric's bound")
	flag.Parse()

	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be 1..60, -trace 0 or 1, and there are no positional arguments")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, quick: *quick}
	l, err := findLayout()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// A process that measures keeps the machine awake while it does (see
	// awake.go); the suite modes only re-execute this binary per workload.
	stopAwake := func() {}
	var sp *spec
	if *repeat == 0 && *workload != "all" {
		if sp = specByName(*workload); sp == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		stopAwake = keepAwake()
	}

	// A signal must not orphan a child or leave sockets behind: the children
	// die with this process (dieWithParent) and the build directory's
	// leftovers of this pid are swept here.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		stopAwake()
		l.sweep()
		os.Exit(130)
	}()

	code := 0
	switch {
	case *repeat > 0:
		code = runRepeat(o, l, *repeat)
	case *workload == "all":
		code = runAll(o, l, *trace == 1)
	default:
		code = runOne(sp, o, l, *trace == 1)
	}
	stopAwake()
	l.sweep()
	os.Exit(code)
}

// sweep removes whatever this process left in the build directory.
func (l layout) sweep() {
	for _, name := range []string{"hqd-%d", "hqd-%d.sock", "local-%d.sock"} {
		os.Remove(filepath.Join(l.build, fmt.Sprintf(name, os.Getpid())))
	}
}

// finalLine is the machine-readable last line of a single-workload run.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]finalMetric `json:"metrics"`
}

type finalMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printFinal(correct bool, attempted, failed uint64, metrics map[string]metric) {
	fl := finalLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]finalMetric{}}
	for name, m := range metrics {
		fl.Metrics[name] = finalMetric{Value: m.Value, Unit: m.Unit}
	}
	b, _ := json.Marshal(fl)
	fmt.Println(string(b))
}

// runOne runs a single workload in this process — untraced for the
// end-to-end metrics, or the traced ledger — and prints the result line.
func runOne(sp *spec, o options, l layout, traced bool) int {
	if traced {
		led, err := runLedger(sp, o, l)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printLedger(led)
		printFinal(led.Correct, led.Attempted, led.Failed, led.Metrics)
		if !led.Correct {
			return 1
		}
		return 0
	}
	res, err := runWorkload(sp, o, l)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printResult(res)
	if err := writeJSON(filepath.Join(l.out, "result."+sp.name+".json"), res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printFinal(res.Correct, res.Attempted, res.Failed, res.Metrics)
	if !res.Correct {
		return 1
	}
	return 0
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printResult prints one workload's metrics by name with units, spread and
// rep counts, then its checks.
func printResult(r *result) {
	fmt.Printf("== %s  seed=%d  GOMAXPROCS=%d  measured %.1fs\n", r.Workload, r.Seed, r.GOMAXPROCS, r.MeasuredS)
	row := func(name string, m metric) {
		fmt.Printf("  %-22s %14.4f %-4s  min %.4f  max %.4f  reps %d", name, m.Value, m.Unit, m.Min, m.Max, m.Reps)
		if m.Note != "" {
			fmt.Printf("  (%s)", m.Note)
		}
		fmt.Println()
	}
	for _, name := range sortedKeys(r.Metrics) {
		row(name, r.Metrics[name])
	}
	for _, name := range sortedKeys(r.Extra) {
		row(name, r.Extra[name])
	}
	fmt.Printf("  %-22s %14.6f       %d failed of %d attempted\n", "fail_ratio", r.FailRatio, r.Failed, r.Attempted)
	for _, c := range r.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Printf("  [%s] %-28s %s\n", mark, c.Name, c.Detail)
	}
}

// suite is the report of one pass over every workload (out/results.json).
type suite struct {
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Quick     bool               `json:"quick"`
	Host      hostInfo           `json:"host"`
	Workloads map[string]*result `json:"workloads"`
}

// runSuite runs every workload, each in a fresh re-exec of this binary so
// GC state, the RSS high-water mark and rusage do not leak between them.
func runSuite(o options, l layout) (*suite, error) {
	su := &suite{Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Host: host(l), Workloads: map[string]*result{}}
	for _, sp := range specs {
		args := []string{"-workload", sp.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds)}
		if o.quick {
			args = append(args, "-quick")
		}
		if err := reexec(args); err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		b, err := os.ReadFile(filepath.Join(l.out, "result."+sp.name+".json"))
		if err != nil {
			return nil, err
		}
		res := &result{}
		if err := json.Unmarshal(b, res); err != nil {
			return nil, err
		}
		su.Workloads[sp.name] = res
	}
	return su, nil
}

func runAll(o options, l layout, traced bool) int {
	su, err := runSuite(o, l)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := writeJSON(filepath.Join(l.out, "results.json"), su); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", filepath.Join("bench", "out", "results.json"))
	if traced {
		args := []string{"-workload", specs[0].name, "-trace", "1", "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds)}
		if o.quick {
			args = append(args, "-quick")
		}
		if err := reexec(args); err != nil {
			fmt.Fprintln(os.Stderr, "bench: ledger:", err)
			return 1
		}
	}
	return 0
}

// reexec runs this binary again with args, passing its output through.
func reexec(args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, args...)
	dieWithParent(cmd)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w", filepath.Base(self), strings.Join(args, " "), err)
	}
	return nil
}
