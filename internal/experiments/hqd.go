package experiments

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"herqules/internal/chaos"
	"herqules/internal/compiler"
	"herqules/internal/hqnet"
	"herqules/internal/ipc"
	"herqules/internal/kernel"
	"herqules/internal/policy"
	"herqules/internal/supervisor"
	"herqules/internal/telemetry"
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
//   - a process whose session goes silent past the lease dies with exactly
//     kernel.ReasonLeaseExpired, visible in forensics;
//   - protocol abuse (duplicate HELLO, stale resume) severs or rejects but
//     never corrupts another session, and the abused process's death is the
//     lease's, attributably;
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

	// Lease phase.
	LeaseKillReason string `json:"lease_kill_reason"`

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

// drain shuts a System or an hqnet.Server down, giving in-flight work 15 s.
func drain(s interface{ Shutdown(context.Context) error }) error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// abort shuts a System or an hqnet.Server down at once, killing whatever is
// still running.
func abort(s interface{ Shutdown(context.Context) error }) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Shutdown(ctx)
}

// waitFor polls cond for up to d.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// hqdKillReason reports a kill for pid whether the kernel context is still
// live or the supervisor has already frozen the attribution row.
func hqdKillReason(sys *supervisor.System, pid int32) (bool, string) {
	if killed, reason := sys.Kernel().Killed(pid); killed {
		return true, reason
	}
	for _, p := range sys.Stats().Procs {
		if p.PID == pid && p.KillReason != "" {
			return true, p.KillReason
		}
	}
	return false, ""
}

// hqdRunProc executes one instrumented program as a remote monitored process:
// the program's messages cross the session (sealed when the daemon runs an
// authenticated policy set), its syscalls gate through the networked kernel,
// and its kill signal arrives as a gate verdict or kill notice.
func hqdRunProc(c *hqnet.Client, ins *compiler.Instrumented) (*vm.Result, error) {
	cfg := ins.VMConfig()
	cfg.PID = c.PID()
	cfg.Kernel = c
	cfg.Killed = c.Killed
	sender := c.Sender()
	cfg.Emit = sender.Send
	p, err := vm.NewProcess(ins.Mod, cfg)
	if err != nil {
		return nil, fmt.Errorf("hqd: load %s: %w", ins.Mod.Name, err)
	}
	return p.Run("main"), nil
}

// hqdEnforce is the enforcement phase: procs mixed clean/violating programs
// (every third violating) over alternating TCP and Unix-domain transports,
// under the default policy set plus the hmac sealer, CheckSeq on, kills on —
// with the chaos plane killing connections mid-frame and stalling writes.
func hqdEnforce(seed uint64, procs int, rep *HQDReport, sockDir string) error {
	names := append(append([]string{}, policy.DefaultSet...), "hmac")
	factory, err := policy.SetFactory(names...)
	if err != nil {
		return fmt.Errorf("hqd: policy set: %w", err)
	}
	sys := supervisor.New(supervisor.Config{
		Policies:        factory,
		KillOnViolation: true,
		CheckSeq:        true,
		Epoch:           hqdEpoch,
		Shards:          2,
	})
	srv := hqnet.NewServer(hqnet.Config{Sys: sys, Lease: hqdLease})
	tcp, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("hqd: tcp listen: %w", err)
	}
	sock := filepath.Join(sockDir, "hqd.sock")
	if _, err := srv.Listen("unix", sock); err != nil {
		return fmt.Errorf("hqd: unix listen: %w", err)
	}

	// Write-side connection faults only: drops sever mid-frame (the far
	// side's decoder must see truncation, the client must resume),
	// boundary drops sever at an exact frame boundary (a clean-looking EOF
	// the session layer alone must catch), stalls freeze a write well under
	// the lease. The rates are per Write, and a client writes at a gate or a
	// heartbeat, not once per frame (twice on these wrapped connections: the
	// ring's frames, then the control frame), so a rate that is to sever a
	// process a few times in its couple of dozen writes is large.
	inj := chaos.NewInjector(seed,
		chaos.WithConnDrop(0.18),
		chaos.WithConnDropAtBoundary(0.12),
		chaos.WithConnStall(0.12, 2*time.Millisecond),
	)

	cleanIns, err := chaosVictim(false)
	if err != nil {
		return err
	}
	attackIns, err := chaosVictim(true)
	if err != nil {
		return err
	}

	type result struct {
		i       int
		res     *vm.Result
		resumes uint64
		err     error
	}
	results := make(chan result, procs)
	for i := 0; i < procs; i++ {
		ins := cleanIns
		if i%3 == 2 {
			ins = attackIns
			rep.Violators++
		}
		network, addr := "tcp", tcp.Addr().String()
		if i%2 == 1 {
			network, addr = "unix", sock
		}
		go func(i int, ins *compiler.Instrumented, network, addr string) {
			// At these rates the chaos plane regularly kills the HELLO itself.
			// Nothing is admitted then, so the process simply dials again.
			var c *hqnet.Client
			var err error
			for attempt := 0; attempt < 8 && c == nil; attempt++ {
				c, err = hqnet.Dial(context.Background(), hqnet.ClientConfig{
					Network: network, Addr: addr,
					Tenant:   uint64(i % 4),
					WrapConn: inj.Conn,
				})
			}
			if err != nil {
				results <- result{i: i, err: fmt.Errorf("dial %s: %w", network, err)}
				return
			}
			res, err := hqdRunProc(c, ins)
			resumes := c.Resumes()
			c.Close()
			results <- result{i: i, res: res, resumes: resumes, err: err}
		}(i, ins, network, addr)
	}

	got, err := soakCollect("hqd", results, procs, hqdWallBudget)
	if err != nil {
		abort(srv)
		return err
	}
	// Violators: the gate must refuse — network transparency cannot weaken
	// bounded asynchronous validation. Clean processes: transport loss must
	// be invisible — resume, not a kill, and certainly not a counter-gap kill
	// manufactured by the severed connection.
	j := soakJudge{cleanDeath: func(id string, res *vm.Result, _ []*policy.Violation) []string {
		return []string{fmt.Sprintf("clean %s killed: %q (severed transports must resume, not kill)", id, res.KillReason)}
	}}
	for _, r := range got {
		if r.err != nil {
			abort(srv)
			return fmt.Errorf("hqd: proc %d: %w", r.i, r.err)
		}
		rep.Resumes += r.resumes
		j.judge(fmt.Sprint(r.i), r.i%3 == 2, r.res, nil)
	}
	rep.CleanOK, rep.ViolatorsKilled = j.cleanOK, j.violatorsKilled
	invariantErrs := j.errs

	if err := drain(srv); err != nil {
		return fmt.Errorf("hqd: shutdown: %w", err)
	}
	rep.EnforceFaults = inj.Counts()
	if f := rep.EnforceFaults; f.ConnDrops == 0 || f.ConnDropBoundaries == 0 || rep.Resumes == 0 {
		invariantErrs = append(invariantErrs,
			fmt.Sprintf("%d mid-frame drops, %d boundary drops, %d resumes: each must happen at least once, or the resume path went unexercised",
				f.ConnDrops, f.ConnDropBoundaries, rep.Resumes))
	}
	return failures("hqd: enforcement phase", invariantErrs)
}

// hqdLeasePhase goes silent past the lease and asserts the one legitimate
// path from transport failure to process death: attributable lease expiry.
func hqdLeasePhase(rep *HQDReport) error {
	m := telemetry.New(0)
	sys := supervisor.New(supervisor.Config{
		Metrics:         m,
		KillOnViolation: true,
		FlightRecorder:  64,
		Epoch:           hqdEpoch,
	})
	srv := hqnet.NewServer(hqnet.Config{Sys: sys, Lease: hqdAbuseLease, Metrics: m})
	tcp, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("hqd: lease listen: %w", err)
	}
	c, err := hqnet.Dial(context.Background(), hqnet.ClientConfig{
		Network: "tcp", Addr: tcp.Addr().String(),
		HeartbeatEvery: time.Hour, // stalled client: never renews
	})
	if err != nil {
		return fmt.Errorf("hqd: lease dial: %w", err)
	}
	defer c.Close()

	if !waitFor(10*time.Second, func() bool {
		killed, _ := hqdKillReason(sys, c.PID())
		return killed
	}) {
		return fmt.Errorf("hqd: stalled session never killed (lease %v)", hqdAbuseLease)
	}
	_, reason := hqdKillReason(sys, c.PID())
	rep.LeaseKillReason = reason
	if reason != kernel.ReasonLeaseExpired {
		return fmt.Errorf("hqd: stall kill reason %q, want %q (death must be the lease's, not a counter gap's)",
			reason, kernel.ReasonLeaseExpired)
	}
	// Attributable in forensics and in the metrics registry.
	if !waitFor(10*time.Second, func() bool {
		fr, ok := sys.Forensics(c.PID())
		return ok && fr.KillReason == kernel.ReasonLeaseExpired
	}) {
		return fmt.Errorf("hqd: no forensic report attributing the lease kill")
	}
	if got := m.Snapshot().Counters["hqnet.lease.expired"].Total; got != 1 {
		return fmt.Errorf("hqd: hqnet.lease.expired = %d, want 1", got)
	}
	if err := drain(srv); err != nil {
		return fmt.Errorf("hqd: lease shutdown: %w", err)
	}
	return nil
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
		if !waitFor(10*time.Second, func() bool {
			for _, p := range sys.Stats().Procs {
				if p.PID == pid && p.State != "running" {
					return p.State == "exited"
				}
			}
			return false
		}) {
			invariantErrs = append(invariantErrs,
				fmt.Sprintf("conn %d (pid %d): goodbye did not finalize cleanly", k, pid))
		}
	}

	// Every severed-by-abuse process dies by lease, attributably.
	for _, pid := range leaseKillPids {
		pid := pid
		if !waitFor(10*time.Second, func() bool {
			killed, _ := hqdKillReason(sys, pid)
			return killed
		}) {
			invariantErrs = append(invariantErrs,
				fmt.Sprintf("pid %d: severed session never lease-killed", pid))
			continue
		}
		if _, reason := hqdKillReason(sys, pid); reason != kernel.ReasonLeaseExpired {
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
// enforcement over real sockets with chaos-severed connections, lease
// expiry, protocol abuse (run twice to prove the schedule is a pure function
// of the seed), and a goroutine-leak check over it all.
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

	sockDir, err := os.MkdirTemp("", "hqd-soak-")
	if err != nil {
		return Report{}, err
	}
	defer os.RemoveAll(sockDir)

	if err := hqdEnforce(seed, procs, rep, sockDir); err != nil {
		return Report{}, err
	}
	if err := hqdLeasePhase(rep); err != nil {
		return Report{}, err
	}
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
	fmt.Fprintf(&sb, "lease:    silent session killed with %q, forensics + hqnet.lease.expired agree\n",
		rep.LeaseKillReason)
	fmt.Fprintf(&sb, "abuse:    %d conns, pattern %s (dup-hello=%d stale-resume=%d), schedule hash %s, reproducible=%t\n",
		rep.AbuseConns, rep.AbusePattern, rep.DupHellos, rep.StaleResumes, rep.ScheduleHash, rep.Reproducible)
	fmt.Fprintf(&sb, "teardown: goroutines %d -> %d (baseline), elapsed %v\n",
		rep.GoroutineBaseline, rep.GoroutineSettled, time.Duration(rep.ElapsedMs)*time.Millisecond)
	return Report{sb.String(), rep}, nil
}
