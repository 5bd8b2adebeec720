package experiments

import (
	"fmt"
	"runtime"
	"time"

	"herqules/internal/policy"
	"herqules/internal/supervisor"
	"herqules/internal/vm"
)

// soakJudge is the one judgement every enforcement soak (chaos, its hmac
// phase, hqd) passes on its processes, and the tally of what it judged. A
// violator must be killed and must never commit its gated payload, exit(99);
// the ungated exploit marker may race the kill (§2.2 bounds the window, it
// does not close it), so the marker is not asserted — the gated side effect
// is. A clean process must finish with no error and output [42], or die in a
// way the soak's cleanDeath rule accepts.
type soakJudge struct {
	prefix     string // names the phase in every message ("hmac ")
	outputHint string // glosses a wrong clean output (" (silent tamper?)")
	// cleanDeath returns the invariants a killed clean process's death
	// violates (none: the soak explains it); id names the process.
	cleanDeath func(id string, res *vm.Result, viols []*policy.Violation) []string

	cleanOK, cleanKilled, violatorsKilled int
	errs                                  []string
}

// judge applies the soak invariants to one process's result; id names it in
// messages ("3 (pid 7)"), viols are its recorded policy violations.
func (j *soakJudge) judge(id string, violator bool, res *vm.Result, viols []*policy.Violation) {
	switch {
	case violator && !res.Killed:
		j.fail("violator %s was not killed", id)
	case violator:
		j.violatorsKilled++
		if res.ExitCode == 99 {
			j.fail("violator %s: gated payload committed", id)
		}
	case res.Killed:
		j.cleanKilled++
		j.errs = append(j.errs, j.cleanDeath(id, res, viols)...)
	case res.Err != nil:
		j.fail("clean %s: error %v", id, res.Err)
	case len(res.Output) != 1 || res.Output[0] != 42:
		j.fail("clean %s: output %v, want [42]%s", id, res.Output, j.outputHint)
	default:
		j.cleanOK++
	}
}

func (j *soakJudge) fail(format string, args ...any) {
	j.errs = append(j.errs, j.prefix+fmt.Sprintf(format, args...))
}

// waitProcs waits for each handle in turn on a goroutine of its own and
// sends the outcomes in launch order.
func waitProcs(handles []*supervisor.Proc) <-chan *supervisor.Outcome {
	outs := make(chan *supervisor.Outcome, len(handles))
	go func() {
		for _, p := range handles {
			out, _ := p.Wait() // a launched process always has an outcome
			outs <- out
		}
	}()
	return outs
}

// soakCollect receives procs results in arrival order, failing when the wall
// budget runs out first; the caller then tears its system down, which kills
// the stragglers.
func soakCollect[T any](name string, results <-chan T, procs int, budget time.Duration) ([]T, error) {
	timeout := time.After(budget)
	got := make([]T, 0, procs)
	for len(got) < procs {
		select {
		case r := <-results:
			got = append(got, r)
		case <-timeout:
			return nil, fmt.Errorf("%s: wall budget %v exceeded with %d/%d processes outstanding",
				name, budget, procs-len(got), procs)
		}
	}
	return got, nil
}

// settleGoroutines is the soaks' zero-leak invariant: with every system shut
// down, the goroutine count must fall back to the pre-soak baseline within
// 5 s. It returns the count it settled at.
func settleGoroutines(name string, baseline int) (int, error) {
	settled := waitFor(5*time.Second, func() bool { return runtime.NumGoroutine() <= baseline })
	n := runtime.NumGoroutine()
	if !settled {
		return n, fmt.Errorf("%s: goroutines leaked: %d running, baseline %d", name, n, baseline)
	}
	return n, nil
}
