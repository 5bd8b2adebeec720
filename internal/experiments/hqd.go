package experiments

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"time"

	"herqules/internal/chaos"
	"herqules/internal/hqnet"
	"herqules/internal/ipc"
	"herqules/internal/kernel"
	"herqules/internal/policy"
	"herqules/internal/supervisor"
	"herqules/internal/vm"
)

// The hqd soak drives the networked attestation plane the way a hostile
// deployment would: real monitored programs running on the far side of real
// TCP and Unix-domain sockets, with the chaos plane severing transports
// mid-frame, stalling them past the lease, and abusing the handshake
// protocol. The invariants are the connection lifecycle's fail-closed
// contract:
//
//   - no violator ever passes a gate, network or not;
//   - a severed clean process survives by resuming — it is never killed,
//     and in particular never killed by a counter gap the transport loss
//     itself manufactured;
//   - exactly one kernel kill per killed process: a clean exit never ends
//     in a lease kill;
//   - protocol abuse (duplicate HELLO, stale resume) severs or rejects but
//     never corrupts another session, and the abused process's death is the
//     lease's, attributably (that a silent session dies with exactly
//     kernel.ReasonLeaseExpired, visible in forensics and counted, is
//     hqnet's TestLeaseExpiryKillsFailClosed);
//   - the per-connection fault schedule is a pure function of the seed;
//   - nothing leaks: goroutines settle back to the pre-soak baseline.
const (
	hqdLease      = 500 * time.Millisecond
	hqdAbuseLease = 150 * time.Millisecond
	hqdEpoch      = time.Second
	hqdWallBudget = 90 * time.Second
)

// HQDReport is the machine-readable soak artifact (`hqbench -exp hqd -out`).
type HQDReport struct {
	Seed      uint64 `json:"seed"`
	Procs     int    `json:"procs"`
	Violators int    `json:"violators"`

	// Enforcement phase (mixed workload over TCP + UDS, hmac-sealed).
	CleanOK         int          `json:"clean_ok"`
	ViolatorsKilled int          `json:"violators_killed"`
	Resumes         uint64       `json:"resumes"`
	EnforceFaults   chaos.Counts `json:"enforce_faults"`

	// Protocol-abuse phase (run twice for reproducibility).
	AbuseConns   int    `json:"abuse_conns"`
	DupHellos    uint64 `json:"dup_hellos"`
	StaleResumes uint64 `json:"stale_resumes"`
	AbusePattern string `json:"abuse_pattern"`
	ScheduleHash string `json:"schedule_hash"`
	Reproducible bool   `json:"reproducible"`

	GoroutineBaseline int   `json:"goroutine_baseline"`
	GoroutineSettled  int   `json:"goroutine_settled"`
	ElapsedMs         int64 `json:"elapsed_ms"`
}

// hqdRow is pid's attribution row: assembled live (a kill shows as soon as
// the kernel deals it) until the process finishes, frozen after.
func hqdRow(sys *supervisor.System, pid int32) supervisor.ProcStats {
	for _, p := range sys.ProcStats() {
		if p.PID == pid {
			return p
		}
	}
	return supervisor.ProcStats{}
}

// hqdAbuse runs the protocol-abuse pass: conns raw-driven frames, each
// drawing its chaos decisions (stale resume first, duplicate HELLO after
// admission) from the seeded injector. Returns the decision pattern and the
// injector's schedule hash so a second run can assert reproducibility.
func hqdAbuse(seed uint64, conns int, rep *HQDReport) (string, uint64, error) {
	sys := supervisor.New(supervisor.Config{KillOnViolation: true, Epoch: hqdEpoch})
	srv := hqnet.NewServer(hqnet.Config{Sys: sys, Lease: hqdAbuseLease})
	tcp, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", 0, fmt.Errorf("hqd: abuse listen: %w", err)
	}
	addr := tcp.Addr().String()
	inj := chaos.NewInjector(seed,
		chaos.WithDupHello(0.5),
		chaos.WithStaleResume(0.5),
	)

	dial := func() (net.Conn, *ipc.FrameWriter, *ipc.FrameDecoder, error) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, nil, nil, err
		}
		return nc, ipc.NewFrameWriter(nc), ipc.NewFrameDecoder(nc), nil
	}
	readOne := func(dec *ipc.FrameDecoder) (ipc.Message, bool) {
		var one [1]ipc.Message
		n, _, _ := dec.Decode(one[:])
		return one[0], n == 1
	}

	var pattern strings.Builder
	var invariantErrs []string
	var leaseKillPids []int32
	for k := 0; k < conns; k++ {
		stream := inj.NextStream()
		dup := inj.DupHello(stream)
		stale := inj.StaleResume(stream)
		switch {
		case dup && stale:
			pattern.WriteByte('B')
		case dup:
			pattern.WriteByte('D')
		case stale:
			pattern.WriteByte('S')
		default:
			pattern.WriteByte('-')
		}

		if stale {
			// Forged/stale token: the daemon must reject and touch nothing.
			nc, fw, dec, err := dial()
			if err != nil {
				return "", 0, fmt.Errorf("hqd: abuse dial: %w", err)
			}
			_ = fw.WriteMessage(ipc.Message{Op: ipc.OpResume, PID: 12345, Arg1: 0xbad0bad0 ^ uint64(k)})
			m, ok := readOne(dec)
			if !ok || m.Op != ipc.OpReject || m.Arg1 != hqnet.RejectUnknownSession {
				invariantErrs = append(invariantErrs,
					fmt.Sprintf("conn %d: stale resume answered %+v, want RejectUnknownSession", k, m))
			}
			nc.Close()
		}

		nc, fw, dec, err := dial()
		if err != nil {
			return "", 0, fmt.Errorf("hqd: abuse dial: %w", err)
		}
		_ = fw.WriteMessage(ipc.Message{Op: ipc.OpHello, Arg1: hqnet.WireVersion, Arg2: uint64(k)})
		welcome, ok := readOne(dec)
		if !ok || welcome.Op != ipc.OpWelcome {
			nc.Close()
			invariantErrs = append(invariantErrs,
				fmt.Sprintf("conn %d: handshake answered %+v, want OpWelcome", k, welcome))
			continue
		}
		pid := welcome.PID

		if dup {
			// Duplicate HELLO after admission: the daemon severs (the read
			// returns) and the lease — nothing else — disposes of the proc.
			_ = fw.WriteMessage(ipc.Message{Op: ipc.OpHello, Arg1: hqnet.WireVersion, Arg2: uint64(k)})
			if _, ok := readOne(dec); ok {
				invariantErrs = append(invariantErrs,
					fmt.Sprintf("conn %d: daemon answered a duplicate HELLO instead of severing", k))
			}
			nc.Close()
			leaseKillPids = append(leaseKillPids, pid)
			continue
		}

		// Well-behaved control: clean goodbye, no kill.
		_ = fw.WriteMessage(ipc.Message{Op: ipc.OpGoodbye, PID: pid})
		nc.Close()
		if !waitFor(10*time.Second, func() bool { return hqdRow(sys, pid).State == "exited" }) {
			invariantErrs = append(invariantErrs,
				fmt.Sprintf("conn %d (pid %d): goodbye did not finalize cleanly", k, pid))
		}
	}

	// Every severed-by-abuse process dies by lease, attributably.
	for _, pid := range leaseKillPids {
		// One read decides: between the kernel's Exit and the frozen row, a
		// finishing process's row shows no kill.
		var reason string
		if !waitFor(10*time.Second, func() bool {
			reason = hqdRow(sys, pid).KillReason
			return reason != ""
		}) {
			invariantErrs = append(invariantErrs,
				fmt.Sprintf("pid %d: severed session never lease-killed", pid))
			continue
		}
		if reason != kernel.ReasonLeaseExpired {
			invariantErrs = append(invariantErrs,
				fmt.Sprintf("pid %d: killed for %q, want %q", pid, reason, kernel.ReasonLeaseExpired))
		}
	}

	if err := drain(srv); err != nil {
		return "", 0, fmt.Errorf("hqd: abuse shutdown: %w", err)
	}
	c := inj.Counts()
	rep.DupHellos, rep.StaleResumes = c.DupHellos, c.StaleResumes
	if c.DupHellos+c.StaleResumes == 0 {
		invariantErrs = append(invariantErrs, "abuse schedule fired nothing: phase proved nothing")
	}
	if err := failures("hqd: abuse phase", invariantErrs); err != nil {
		return "", 0, err
	}
	return pattern.String(), inj.ScheduleHash(), nil
}

// HQD is the networked-attestation-plane soak behind `hqbench -exp hqd`:
// enforcement over real sockets with chaos-severed connections, protocol
// abuse (run twice to prove the schedule is a pure function of the seed),
// and a goroutine-leak check over it all.
func HQD(c Config) (Report, error) {
	seed, procs, quick := c.Seed, c.Procs, c.Quick
	if procs <= 0 {
		procs = 9
	}
	if quick && procs > 6 {
		procs = 6
	}
	abuseConns := 12
	if quick {
		abuseConns = 8
	}
	rep := &HQDReport{Seed: seed, Procs: procs, AbuseConns: abuseConns}
	rep.GoroutineBaseline = runtime.NumGoroutine()
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
			Shards:          2,
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
		fired: func(f chaos.Counts, t soakTally) string {
			if f.ConnDrops == 0 || f.ConnDropBoundaries == 0 || t.resumes == 0 {
				return fmt.Sprintf("%d mid-frame drops, %d boundary drops, %d resumes: each must happen at least once, or the resume path went unexercised",
					f.ConnDrops, f.ConnDropBoundaries, t.resumes)
			}
			return ""
		},
	}
	t, err := enforce.run(procs)
	if err != nil {
		return Report{}, err
	}
	rep.Violators, rep.Resumes = t.violators, t.resumes
	rep.CleanOK, rep.ViolatorsKilled = t.cleanOK, t.violatorsKilled
	rep.EnforceFaults = enforce.inj.Counts()

	pat1, hash1, err := hqdAbuse(seed, abuseConns, rep)
	if err != nil {
		return Report{}, err
	}
	pat2, hash2, err := hqdAbuse(seed, abuseConns, rep)
	if err != nil {
		return Report{}, err
	}
	rep.AbusePattern, rep.ScheduleHash = pat1, fmt.Sprintf("%#016x", hash1)
	rep.Reproducible = pat1 == pat2 && hash1 == hash2
	if !rep.Reproducible {
		return Report{}, fmt.Errorf(
			"hqd: seed %#x is not reproducible:\n  run1 %s hash=%#016x\n  run2 %s hash=%#016x",
			seed, pat1, hash1, pat2, hash2)
	}

	// Zero leaked goroutines across three servers, every client, and the
	// chaos plane.
	if rep.GoroutineSettled, err = settleGoroutines("hqd", rep.GoroutineBaseline); err != nil {
		return Report{}, err
	}
	rep.ElapsedMs = time.Since(start).Milliseconds()

	var sb strings.Builder
	fmt.Fprintf(&sb, "seed %#x, %d procs (%d violating) over tcp+unix, lease %v (abuse %v)\n",
		seed, rep.Procs, rep.Violators, hqdLease, hqdAbuseLease)
	fmt.Fprintf(&sb, "enforce:  %d clean finished via resume (%d session resumes), %d/%d violators killed at the gate\n",
		rep.CleanOK, rep.Resumes, rep.ViolatorsKilled, rep.Violators)
	fmt.Fprintf(&sb, "faults:   %v\n", rep.EnforceFaults)
	fmt.Fprintf(&sb, "abuse:    %d conns, pattern %s (dup-hello=%d stale-resume=%d), schedule hash %s, reproducible=%t\n",
		rep.AbuseConns, rep.AbusePattern, rep.DupHellos, rep.StaleResumes, rep.ScheduleHash, rep.Reproducible)
	fmt.Fprintf(&sb, "teardown: goroutines %d -> %d (baseline), elapsed %v\n",
		rep.GoroutineBaseline, rep.GoroutineSettled, time.Duration(rep.ElapsedMs)*time.Millisecond)
	return Report{sb.String(), rep}, nil
}
