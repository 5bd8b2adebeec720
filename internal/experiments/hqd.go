package experiments

import (
	"fmt"
	"runtime"
	"time"

	"herqules/internal/chaos"
	"herqules/internal/policy"
	"herqules/internal/supervisor"
	"herqules/internal/vm"
)

// The hqd soak drives the networked attestation plane the way a hostile
// deployment would: real monitored programs running on the far side of real
// TCP and Unix-domain sockets, with the chaos plane severing transports
// mid-frame, at a frame boundary, and stalling their writes. The invariants
// are the connection lifecycle's fail-closed contract:
//
//   - no violator ever passes a gate, network or not;
//   - a severed clean process survives by resuming — it is never killed,
//     and in particular never killed by a counter gap the transport loss
//     itself manufactured;
//   - exactly one kernel kill per killed process: a clean exit never ends
//     in a lease kill;
//   - nothing leaks: goroutines settle back to the pre-soak baseline.
//
// Protocol abuse is not soaked here: hqnet's own tests drive each case
// deterministically (a forged resume is rejected and touches no live
// session, a duplicate HELLO severs and the lease kills with exactly
// kernel.ReasonLeaseExpired, a goodbye finalizes with no kill) and
// FuzzControlFrames drives arbitrary control-frame sequences.
const (
	hqdLease      = 500 * time.Millisecond
	hqdEpoch      = time.Second
	hqdWallBudget = 90 * time.Second
)

// HQD is the networked-attestation-plane soak behind `hqbench -exp hqd`:
// enforcement over real sockets with chaos-severed connections, and a
// goroutine-leak check after it.
func HQD(c Config) (Report, error) {
	seed, procs, quick := c.Seed, c.Procs, c.Quick
	if procs <= 0 {
		procs = 9
	}
	if quick && procs > 6 {
		procs = 6
	}
	rep := &SoakReport{Seed: seed, GoroutineBaseline: runtime.NumGoroutine()}
	start := time.Now()

	// The enforcement phase: mixed clean/violating programs (every third
	// violating) over alternating TCP and Unix-domain transports, under the
	// default policy set plus the hmac sealer, CheckSeq on, kills on — with
	// the chaos plane killing connections mid-frame and stalling writes.
	enforce := soak{
		name: "hqd",
		cfg: supervisor.Config{
			Policies:        sealedPolicies(),
			KillOnViolation: true,
			CheckSeq:        true,
			Epoch:           hqdEpoch,
		},
		// Write-side connection faults only: drops sever mid-frame (the far
		// side's decoder must see truncation, the client must resume),
		// boundary drops sever at an exact frame boundary (a clean-looking
		// EOF the session layer alone must catch), stalls freeze a write
		// well under the lease. The rates are per Write, and a client writes
		// at a gate or a heartbeat, not once per frame (twice on these
		// wrapped connections: the ring's frames, then the control frame),
		// so a rate that is to sever a process a few times in its couple of
		// dozen writes is large.
		inj: chaos.NewInjector(seed,
			chaos.WithConnDrop(0.18),
			chaos.WithConnDropAtBoundary(0.12),
			chaos.WithConnStall(0.12, 2*time.Millisecond),
		),
		net:    true,
		attack: true,
		// Violators: the gate must refuse — network transparency cannot
		// weaken bounded asynchronous validation. Clean processes:
		// transport loss must be invisible — resume, not a kill, and
		// certainly not a counter-gap kill manufactured by the severed
		// connection.
		judge: soakJudge{cleanDeath: func(id string, res *vm.Result, _ []*policy.Violation) []string {
			return []string{fmt.Sprintf("clean %s killed: %q (severed transports must resume, not kill)", id, res.KillReason)}
		}},
		fired: func(p SoakPhase) string {
			drops, boundary := p.Faults[chaos.FaultConnDrop], p.Faults[chaos.FaultConnDropBoundary]
			if drops == 0 || boundary == 0 || p.Resumes == 0 {
				return fmt.Sprintf("%d mid-frame drops, %d boundary drops, %d resumes: each must happen at least once, or the resume path went unexercised",
					drops, boundary, p.Resumes)
			}
			return ""
		},
	}
	p, err := enforce.run(procs)
	if err != nil {
		return Report{}, err
	}
	rep.Phases = []SoakPhase{p}

	// Zero leaked goroutines across the server, every client, and the
	// chaos plane.
	if rep.GoroutineSettled, err = settleGoroutines("hqd", rep.GoroutineBaseline); err != nil {
		return Report{}, err
	}
	rep.ElapsedMs = time.Since(start).Milliseconds()
	return Report{rep.Format(), rep}, nil
}
