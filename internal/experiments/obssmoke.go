package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"herqules/internal/compiler"
	"herqules/internal/ipc"
	"herqules/internal/mir"
	"herqules/internal/obs"
	"herqules/internal/supervisor"
	"herqules/internal/telemetry"
	"herqules/internal/vm"
)

// ObsSmoke is the observability-plane smoke test behind `hqbench -exp obs`:
// it stands up a resident System with the observability server on a
// loopback port, runs a couple of monitored programs through it plus one
// synthetic violator, scrapes /metrics, /healthz and the /violations
// postmortem endpoints over real HTTP, and fails unless the exposition is
// non-empty and carries the series an operator would alert on. It returns a
// short human-readable summary on success.
func ObsSmoke(Config) (Report, error) {
	sys := supervisor.New(supervisor.Config{
		Metrics: telemetry.New(0),
		// Kill-on-violation plus an armed flight recorder: the smoke run
		// includes a synthetic violator so /violations serves a real report.
		KillOnViolation: true,
		FlightRecorder:  64,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = sys.Shutdown(ctx)
	}()
	srv := obs.NewServer(sys)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return Report{}, fmt.Errorf("obs-smoke: bind: %w", err)
	}
	defer srv.Close()
	addr := srv.Addr()

	mod := mir.NewModule("obs-smoke")
	b := mir.NewBuilder(mod)
	b.Func("main", mir.FuncType(mir.I64))
	b.Syscall(vm.SysWrite, mir.ConstInt(7))
	b.Syscall(vm.SysExit, mir.ConstInt(0))
	b.Ret(mir.ConstInt(0))
	mod.Finalize()
	ins, err := compiler.Instrument(mod, compiler.HQSfeStk, compiler.DefaultOptions())
	if err != nil {
		return Report{}, fmt.Errorf("obs-smoke: instrument: %w", err)
	}

	const procs = 2
	var pids []int32
	for i := 0; i < procs; i++ {
		p, err := sys.Launch(ins, supervisor.LaunchOptions{})
		if err != nil {
			return Report{}, fmt.Errorf("obs-smoke: launch: %w", err)
		}
		if _, err := p.Wait(); err != nil {
			return Report{}, fmt.Errorf("obs-smoke: wait: %w", err)
		}
		pids = append(pids, p.PID())
	}

	fetch := func(path string) (string, error) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return "", fmt.Errorf("obs-smoke: GET %s: %w", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", fmt.Errorf("obs-smoke: GET %s: %w", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("obs-smoke: GET %s: status %d body %s", path, resp.StatusCode, body)
		}
		return string(body), nil
	}

	metrics, err := fetch("/metrics")
	if err != nil {
		return Report{}, err
	}
	if strings.TrimSpace(metrics) == "" {
		return Report{}, fmt.Errorf("obs-smoke: /metrics exposition is empty")
	}
	for _, want := range []string{
		"herqules_messages_verified_total",
		"herqules_verifier_pump_stall_ns_bucket",
		fmt.Sprintf(`herqules_proc_messages_total{pid="%d"}`, pids[0]),
		fmt.Sprintf(`herqules_proc_messages_total{pid="%d"}`, pids[1]),
	} {
		if !strings.Contains(metrics, want) {
			return Report{}, fmt.Errorf("obs-smoke: /metrics missing %q", want)
		}
	}

	if _, err := fetch("/healthz"); err != nil {
		return Report{}, err
	}

	// Synthetic violator: register a kernel context and replay a define/check
	// pair with a corrupted pointer, so the cfi policy kills and freezes a
	// report the /violations endpoints must then serve.
	vpid := sys.Kernel().Register()
	v := sys.Verifier()
	v.Deliver(ipc.Message{Op: ipc.OpPointerDefine, PID: vpid, Arg1: 0x40, Arg2: 0x1000, Seq: 1})
	v.Deliver(ipc.Message{Op: ipc.OpPointerCheck, PID: vpid, Arg1: 0x40, Arg2: 0xbad, Seq: 2})

	idxBody, err := fetch("/violations")
	if err != nil {
		return Report{}, err
	}
	var idx []struct {
		PID        int32  `json:"pid"`
		Policy     string `json:"policy"`
		KillReason string `json:"kill_reason"`
		Window     int    `json:"window"`
	}
	if err := json.Unmarshal([]byte(idxBody), &idx); err != nil {
		return Report{}, fmt.Errorf("obs-smoke: /violations is not JSON: %w", err)
	}
	if len(idx) != 1 || idx[0].PID != vpid {
		return Report{}, fmt.Errorf("obs-smoke: /violations index %+v, want one row for pid %d", idx, vpid)
	}
	if idx[0].Policy != "cfi" || idx[0].KillReason == "" || idx[0].Window == 0 {
		return Report{}, fmt.Errorf("obs-smoke: /violations row %+v: want policy=cfi, a kill reason, a window", idx[0])
	}

	repBody, err := fetch(fmt.Sprintf("/violations/%d", vpid))
	if err != nil {
		return Report{}, err
	}
	var report supervisor.ForensicReport
	if err := json.Unmarshal([]byte(repBody), &report); err != nil {
		return Report{}, fmt.Errorf("obs-smoke: /violations/%d is not JSON: %w", vpid, err)
	}
	if report.Policy != "cfi" || report.KillReason == "" || len(report.Window) == 0 {
		return Report{}, fmt.Errorf("obs-smoke: report pid %d: policy %q reason %q window %d — want an attributed cfi postmortem",
			vpid, report.Policy, report.KillReason, len(report.Window))
	}

	// The kill must also surface on the metric plane: the per-policy counter
	// and at least one per-shard occupancy gauge.
	metrics, err = fetch("/metrics")
	if err != nil {
		return Report{}, err
	}
	for _, want := range []string{
		`herqules_violations_total{policy="cfi"} 1`,
		`herqules_shard_procs{shard="0"}`,
	} {
		if !strings.Contains(metrics, want) {
			return Report{}, fmt.Errorf("obs-smoke: /metrics missing %q after the kill", want)
		}
	}

	lines := strings.Count(metrics, "\n")
	return Report{Text: fmt.Sprintf("obs-smoke ok: %d procs, %d exposition lines on %s, /healthz up, postmortem for pid %d (cfi) served\n",
		procs, lines, addr, vpid)}, nil
}
