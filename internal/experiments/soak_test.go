package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"herqules/internal/policy"
	"herqules/internal/vm"
)

// TestSoaksHoldAcrossSeeds runs the chaos and hqd soaks at the tuned default
// seed and three others: a different fault schedule must satisfy the same
// invariants. Each soak enforces its invariants itself (violators never pass
// a gate, every kill is attributed and counted exactly once, goroutines
// drain, schedules reproduce), so any violation is an error from it.
func TestSoaksHoldAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("soaks skipped in -short mode")
	}
	for _, seed := range []uint64{0xda0517, 7, 1, 42} {
		t.Run(fmt.Sprintf("chaos/%#x", seed), func(t *testing.T) {
			rep, err := Chaos(Config{Seed: seed, Procs: 6})
			if err != nil {
				t.Fatalf("chaos soak at seed %#x: %v", seed, err)
			}
			for _, want := range []string{"soak:", "hmac:", "determinism:", "invariants:"} {
				if !strings.Contains(rep.Text, want) {
					t.Errorf("report missing %q section:\n%s", want, rep.Text)
				}
			}
		})
		t.Run(fmt.Sprintf("hqd/%#x", seed), func(t *testing.T) {
			if _, err := HQD(Config{Seed: seed}); err != nil {
				t.Fatalf("hqd soak at seed %#x: %v", seed, err)
			}
		})
	}
}

// TestSoakJudgeCatchesEachInvariant proves the soak judgement can fail: each
// synthetic outcome breaks one invariant, and the judge must name exactly
// that one.
func TestSoakJudgeCatchesEachInvariant(t *testing.T) {
	rejectAll := func(id string, res *vm.Result, _ []*policy.Violation) []string {
		return []string{fmt.Sprintf("clean %s killed: %q", id, res.KillReason)}
	}
	for _, tc := range []struct {
		name     string
		violator bool
		res      vm.Result
		want     string
	}{
		{"violator not killed", true, vm.Result{Output: []uint64{42}},
			"p violator 0 (pid 9) was not killed"},
		{"violator committed exit 99", true, vm.Result{Killed: true, ExitCode: 99},
			"p violator 0 (pid 9): gated payload committed"},
		{"clean process with an error", false, vm.Result{Err: errors.New("boom")},
			"p clean 0 (pid 9): error boom"},
		{"clean process with the wrong output", false, vm.Result{Output: []uint64{41}},
			"p clean 0 (pid 9): output [41], want [42] (hint)"},
		{"clean death the soak rejects", false, vm.Result{Killed: true, KillReason: "bad luck"},
			`clean 0 (pid 9) killed: "bad luck"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := soakJudge{prefix: "p ", outputHint: " (hint)", cleanDeath: rejectAll}
			j.judge("0 (pid 9)", tc.violator, &tc.res, nil)
			if !slices.Equal(j.errs, []string{tc.want}) {
				t.Errorf("errs = %q, want [%q]", j.errs, tc.want)
			}
		})
	}
	// The outcomes the soak accepts leave no error.
	j := soakJudge{cleanDeath: func(string, *vm.Result, []*policy.Violation) []string { return nil }}
	j.judge("0", false, &vm.Result{Output: []uint64{42}}, nil)
	j.judge("1", true, &vm.Result{Killed: true}, nil)
	j.judge("2", false, &vm.Result{Killed: true, KillReason: "explained"}, nil)
	if len(j.errs) != 0 || j.cleanOK != 1 || j.violatorsKilled != 1 || j.cleanKilled != 1 {
		t.Errorf("accepted outcomes: errs %q, tally %d/%d/%d, want none and 1/1/1",
			j.errs, j.cleanOK, j.violatorsKilled, j.cleanKilled)
	}
}
