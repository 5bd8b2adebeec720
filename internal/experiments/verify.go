package experiments

import (
	"fmt"
	"strings"
	"time"

	"herqules/internal/verify"
)

// Verify runs the gate-protocol model checker (internal/verify) and formats
// the evidence both ways:
//
//  1. Soundness of the system: the default 2-proc × 2-shard scope — every
//     transition family enabled, §3.1.1 counter checking on — is explored
//     EXHAUSTIVELY (the state space closes under the configured bounds) and
//     must be clean.
//  2. Soundness of the checker: each of verify.Detectors re-introduces one
//     fixed bug (a kernel race reopened by the checker's scheduler, a broken
//     resume protocol) or disables its mitigating feature (CheckSeq off
//     under reorder), and the checker must report the expected invariant
//     violation with a minimal replayable schedule. A checker that cannot
//     fail proves nothing.
//
// Without Quick it additionally explores the 3-process scope (minutes); the
// smoke scope (~103k states with the connection-churn family) finishes in
// about fifteen seconds.
func Verify(c Config) (Report, error) {
	var b strings.Builder
	var firstErr error
	fail := func(format string, args ...any) {
		if firstErr == nil {
			firstErr = fmt.Errorf(format, args...)
		}
		fmt.Fprintf(&b, "  FAIL: "+format+"\n", args...)
	}

	clean := func(label string, cfg verify.Config) {
		start := time.Now()
		res := verify.Check(cfg)
		fmt.Fprintf(&b, "%-44s %8d states %9d transitions %8s",
			label, res.StatesExplored, res.TransitionsApplied,
			time.Since(start).Round(time.Millisecond))
		switch {
		case !res.Clean():
			fmt.Fprintf(&b, "  VIOLATED\n%s", res.Violations[0])
			fail("%s: %d violation(s)", label, len(res.Violations))
		case res.Truncated:
			fmt.Fprintf(&b, "  TRUNCATED\n")
			fail("%s: exploration truncated; scope did not close", label)
		default:
			fmt.Fprintf(&b, "  CLEAN (exhaustive)\n")
		}
	}

	catches := func(label string, cfg verify.Config, wantInv string) {
		res := verify.Check(cfg)
		if res.Clean() {
			fail("%s: explored clean, expected a %s violation", label, wantInv)
			return
		}
		v := res.Violations[0]
		if v.Invariant != wantInv {
			fail("%s: caught %s, expected %s", label, v.Invariant, wantInv)
			return
		}
		fmt.Fprintf(&b, "%-44s caught %s, minimal schedule: [%s]\n",
			label, v.Invariant, strings.Join(v.Schedule, " "))
	}

	b.WriteString("Exhaustive exploration (all fixes in place):\n")
	clean("2 procs x 2 shards, all families + churn", verify.Defaults())
	if !c.Quick {
		// The 3-proc scope runs without the connection-churn family: churn
		// triples the per-process state and the 3-proc product does not
		// close under any tractable bound. Churn is covered exhaustively at
		// 2 procs above — the resume protocol is per-session, so its bugs
		// need one severed process plus one bystander, not three.
		cfg := verify.Defaults()
		cfg.Procs = 3
		cfg.Conn = false
		cfg.MaxDepth = 30
		cfg.MaxStates = 5_000_000
		clean("3 procs x 2 shards, all families, no churn", cfg)
	} else {
		b.WriteString("  (3-proc scope skipped; run without -quick for the full exploration)\n")
	}

	b.WriteString("\nDetector checks (one fix reverted at a time):\n")
	for _, d := range verify.Detectors() {
		catches(d.Name, d.Config, d.Invariant)
	}

	if firstErr == nil {
		b.WriteString("\nverify: PASS — protocol clean under exhaustive exploration; checker demonstrably catches each reverted fix\n")
	}
	return Report{Text: b.String()}, firstErr
}
