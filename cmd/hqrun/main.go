// Command hqrun executes a textual MIR program (the format printed by
// Module.String and parsed by ParseModule) under a chosen CFI design and
// transport, monitored by the full HerQules stack.
//
// Usage:
//
//	hqrun [-design baseline|hq-sfestk|hq-retptr|clang-cfi|ccfi|cpi]
//	      [-channel inline|fpga|model|shm|mq]
//	      [-entry main] [-monitor] [-print]
//	      [-metrics] [-serve addr] [-forensics report.json] program.mir
//
// With -monitor the verifier records violations without killing; -print
// dumps the instrumented program before running it. -metrics prints the
// system stats (lifecycle totals, per-PID attribution, telemetry snapshot)
// to stderr after the run, on every exit path — including kills, crashes
// and violations. -serve exposes the live observability endpoints
// (/metrics, /healthz, /procs, /violations, /debug/pprof/) on the given
// address for the duration of the run.
//
// The flight recorder is always armed: when the run ends in a kill, the
// frozen ForensicReport (attributed policy, kill reason, last-message window,
// decision trail) is dumped to stderr as the exit artifact, and additionally
// written to the file given with -forensics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	hq "herqules"
)

var designs = map[string]hq.Design{
	"baseline":  hq.Baseline,
	"hq-sfestk": hq.HQSfeStk,
	"hq-retptr": hq.HQRetPtr,
	"clang-cfi": hq.ClangCFI,
	"ccfi":      hq.CCFI,
	"cpi":       hq.CPI,
}

func main() { os.Exit(run()) }

// run is the whole program; main wraps it in os.Exit so that deferred
// artifact writers (the -metrics dump, the System shutdown) run on every
// path — a run that ends in a kill or a violation is precisely the one whose
// stats must not be lost.
func run() int {
	design := flag.String("design", "hq-sfestk", "CFI design: baseline, hq-sfestk, hq-retptr, clang-cfi, ccfi, cpi")
	channel := flag.String("channel", "inline", "transport: inline (deterministic), fpga, model, shm, mq")
	entry := flag.String("entry", "main", "entry function")
	monitor := flag.Bool("monitor", false, "record violations without killing")
	print := flag.Bool("print", false, "print the instrumented program before running")
	metrics := flag.Bool("metrics", false, "print system stats to stderr after the run")
	serve := flag.String("serve", "", "serve live observability endpoints on this address (e.g. :8080)")
	forensicsOut := flag.String("forensics", "", "on a kill, also write the ForensicReport JSON to this file")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "hqrun:", err)
		return 1
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hqrun [flags] program.mir")
		flag.Usage()
		return 2
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return fail(err)
	}
	mod, err := hq.ParseModule(string(src))
	if err != nil {
		return fail(err)
	}
	d, ok := designs[*design]
	if !ok {
		return fail(fmt.Errorf("unknown design %q", *design))
	}
	ins, err := hq.Instrument(mod, d, hq.DefaultOptions())
	if err != nil {
		return fail(err)
	}
	if *print {
		fmt.Println(ins.Mod.String())
	}

	// The flight recorder is cheap enough to always arm: one slot store per
	// verified message, no allocation — and a kill without a postmortem is a
	// support ticket.
	sysOpts := []hq.SystemOption{
		hq.WithKillOnViolation(!*monitor),
		hq.WithFlightRecorder(hq.DefaultFlightSlots),
	}
	if *metrics {
		sysOpts = append(sysOpts, hq.WithMetrics(hq.NewMetrics()))
	}
	if *serve != "" {
		sysOpts = append(sysOpts, hq.WithHTTPAddr(*serve))
	}
	sys := hq.NewSystem(sysOpts...)

	// Artifacts are flushed before the System shuts down (LIFO defers), so
	// the -metrics dump sees final per-PID rows and the endpoint can be
	// scraped until the very end of the run.
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := sys.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "hqrun: shutdown:", err)
		}
	}()
	defer func() {
		if *metrics {
			fmt.Fprintf(os.Stderr, "--- stats ---\n%s", sys.Stats().String())
		}
	}()

	if *serve != "" {
		if addr, aerr := sys.HTTPAddr(); aerr != nil {
			return fail(fmt.Errorf("serving %s: %w", *serve, aerr))
		} else {
			fmt.Fprintf(os.Stderr, "observability endpoints on http://%s\n", addr)
		}
	}

	runOpts := []hq.RunOption{hq.WithEntry(*entry)}
	switch *channel {
	case "inline":
		runOpts = append(runOpts, hq.WithInlineDelivery())
	case "fpga", "model", "shm", "mq":
		kinds := map[string]hq.ChannelKind{
			"fpga": hq.FPGA, "model": hq.UArchModel, "shm": hq.SharedRing, "mq": hq.MessageQueue,
		}
		ch, cerr := hq.NewChannel(kinds[*channel])
		if cerr != nil {
			return fail(cerr)
		}
		runOpts = append(runOpts, hq.WithChannel(ch))
	default:
		return fail(fmt.Errorf("unknown channel %q", *channel))
	}

	p, err := sys.Launch(ins, runOpts...)
	if err != nil {
		return fail(err)
	}
	out, err := p.Wait()
	if err != nil {
		return fail(err)
	}

	for _, v := range out.Output {
		fmt.Println(v)
	}
	fmt.Fprintf(os.Stderr, "exit=%d messages=%d instructions=%d\n",
		out.ExitCode, out.MessagesProcessed, out.Stats.Instructions)
	if out.Killed {
		fmt.Fprintf(os.Stderr, "KILLED: %s\n", out.KillReason)
		dumpForensics(sys, p.PID(), *forensicsOut)
		return 137
	}
	if out.Err != nil {
		fmt.Fprintf(os.Stderr, "CRASHED: %v\n", out.Err)
		return 139
	}
	for _, v := range out.PolicyViolations {
		fmt.Fprintf(os.Stderr, "violation: %s\n", v.Reason)
	}
	return int(out.ExitCode)
}

// dumpForensics prints the killed process's frozen black box to stderr (and
// to file, when given) — the exit artifact of every kill path. A missing
// report is itself reported: it means the kill predated registration or the
// recorder window was lost, and the operator should know that rather than
// see nothing.
func dumpForensics(sys *hq.System, pid int32, file string) {
	rep, ok := sys.Forensics(pid)
	if !ok {
		fmt.Fprintf(os.Stderr, "hqrun: no forensic report for pid %d\n", pid)
		return
	}
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hqrun: encoding forensic report:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "--- forensics (pid %d) ---\n%s\n", pid, doc)
	if file != "" {
		if werr := os.WriteFile(file, append(doc, '\n'), 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "hqrun:", werr)
		}
	}
}
