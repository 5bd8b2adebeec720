package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
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
// drain, schedules reproduce), so any violation is an error from it. Both
// hand back a SoakReport that survives a JSON round trip with every phase.
func TestSoaksHoldAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("soaks skipped in -short mode")
	}
	for _, seed := range []uint64{0xda0517, 7, 1, 42} {
		for _, tc := range []struct {
			name   string
			run    func(Config) (Report, error)
			procs  int // 0: the soak's default
			phases []string
		}{
			{"chaos", Chaos, 6, []string{"chaos", "chaos: hmac", "chaos: determinism", "chaos: determinism"}},
			{"hqd", HQD, 0, []string{"hqd"}},
		} {
			t.Run(fmt.Sprintf("%s/%#x", tc.name, seed), func(t *testing.T) {
				rep, err := tc.run(Config{Seed: seed, Procs: tc.procs})
				if err != nil {
					t.Fatalf("%s soak at seed %#x: %v", tc.name, seed, err)
				}
				data, err := json.Marshal(rep.Data)
				if err != nil {
					t.Fatal(err)
				}
				var back SoakReport
				if err := json.Unmarshal(data, &back); err != nil {
					t.Fatalf("report does not decode as a SoakReport: %v\n%s", err, data)
				}
				if !reflect.DeepEqual(&back, rep.Data) {
					t.Errorf("round trip changed the report:\n  %+v\n  %+v", back, rep.Data)
				}
				var names []string
				for _, p := range back.Phases {
					names = append(names, p.Name)
					if !strings.Contains(rep.Text, p.Name+":") {
						t.Errorf("report text has no %q line:\n%s", p.Name, rep.Text)
					}
				}
				if back.Seed != seed || !slices.Equal(names, tc.phases) {
					t.Errorf("seed %#x, phases %q: want %#x and %q", back.Seed, names, seed, tc.phases)
				}
			})
		}
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
	if len(j.errs) != 0 || j.CleanOK != 1 || j.ViolatorsKilled != 1 || j.CleanKilled != 1 {
		t.Errorf("accepted outcomes: errs %q, tally %d/%d/%d, want none and 1/1/1",
			j.errs, j.CleanOK, j.ViolatorsKilled, j.CleanKilled)
	}
}
