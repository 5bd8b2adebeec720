package herqules

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"herqules/internal/verifier"
)

// TestSystemFacadeConcurrentLaunches drives the redesigned public API end to
// end: one resident System hosting a mix of clean and violating programs
// concurrently, with telemetry attached, per-process outcomes collected via
// Proc.Wait, and a graceful Shutdown.
func TestSystemFacadeConcurrentLaunches(t *testing.T) {
	mod := buildAPIVictim(t)
	ins, err := Instrument(mod, HQSfeStk, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	clean := NewModule("clean")
	b := NewBuilder(clean)
	b.Func("main", FuncTypeOf(I64Type))
	b.Syscall(SysWrite, ConstInt(7))
	b.Syscall(SysExit, ConstInt(0))
	b.Ret(ConstInt(0))
	clean.Finalize()
	cleanIns, err := Instrument(clean, HQSfeStk, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	m := NewMetrics()
	sys := NewSystem(
		WithMetrics(m),
		WithKillOnViolation(true),
		WithChannelKind(SharedRing),
	)

	const pairs = 4
	var procs []*Proc
	for i := 0; i < pairs; i++ {
		pa, err := sys.Launch(ins)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := sys.Launch(cleanIns, WithInlineDelivery())
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, pa, pc)
	}
	for i, p := range procs {
		out, err := p.Wait()
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		attacker := i%2 == 0
		if attacker && !out.Killed {
			t.Errorf("attacker %d not killed", i)
		}
		if !attacker && out.Killed {
			t.Errorf("clean proc %d killed: %s", i, out.KillReason)
		}
	}

	st := sys.Stats()
	if st.Launched != 2*pairs || st.Active != 0 {
		t.Errorf("stats: launched=%d active=%d, want %d/0", st.Launched, st.Active, 2*pairs)
	}
	if st.Killed != pairs {
		t.Errorf("stats: killed=%d, want %d", st.Killed, pairs)
	}
	if st.Snapshot.Counters["kernel.kills"].Total != pairs {
		t.Errorf("kernel.kills = %d, want %d", st.Snapshot.Counters["kernel.kills"].Total, pairs)
	}
	if err := sys.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The compatibility wrapper still works after the redesign.
	if out, err := Run(ins, RunOptions{KillOnViolation: true}); err != nil || !out.Killed {
		t.Errorf("legacy Run: out=%+v err=%v", out, err)
	}
}

// TestDefaultSystemReportsKillAndCountsOnce: a System built with no
// telemetry option still counts into a registry and keeps a flight ring per
// process. A violating program's kill leaves its report, and Stats reads the
// verified count from the one registry counter that holds it.
func TestDefaultSystemReportsKillAndCountsOnce(t *testing.T) {
	ins, err := Instrument(buildAPIVictim(t), HQSfeStk, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(WithKillOnViolation(true))
	defer sys.Shutdown(context.Background())
	p, err := sys.Launch(ins)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Killed {
		t.Fatalf("violating program was not killed: %+v", out)
	}
	rep, ok := sys.Forensics(p.PID())
	if !ok {
		t.Fatal("no forensic report for the killed process")
	}
	if n := len(rep.Window); n == 0 || rep.Window[n-1].Code != "killed" || rep.Policy == "" {
		t.Errorf("report policy %q, window %+v: want an attributed policy and a window ending in the kill", rep.Policy, rep.Window)
	}
	st := sys.Stats()
	if st.MessagesVerified == 0 || st.MessagesVerified != out.MessagesProcessed {
		t.Errorf("MessagesVerified = %d, the process's verified messages %d", st.MessagesVerified, out.MessagesProcessed)
	}
	if got := st.Snapshot.Counters[verifier.MessagesVerified].Total; got != st.MessagesVerified {
		t.Errorf("snapshot %s = %d, MessagesVerified = %d", verifier.MessagesVerified, got, st.MessagesVerified)
	}
}

// TestSystemFacadeHTTPEndpoint: WithHTTPAddr stands up the observability
// plane over the System's own registry; /metrics serves the exposition,
// /healthz tracks shutdown, and HTTPAddr reports the resolved port.
func TestSystemFacadeHTTPEndpoint(t *testing.T) {
	clean := NewModule("obs-clean")
	b := NewBuilder(clean)
	b.Func("main", FuncTypeOf(I64Type))
	b.Syscall(SysWrite, ConstInt(7))
	b.Syscall(SysExit, ConstInt(0))
	b.Ret(ConstInt(0))
	clean.Finalize()
	ins, err := Instrument(clean, HQSfeStk, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// No WithMetrics, no WithFlightRecorder: the endpoint serves the
	// registry and flight rings every System keeps.
	sys := NewSystem(WithHTTPAddr("127.0.0.1:0"))
	addr, err := sys.HTTPAddr()
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		t.Fatal("HTTPAddr empty after successful bind")
	}

	p, err := sys.Launch(ins)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}

	fetch := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := fetch("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{
		"herqules_procs_launched_total 1",
		"herqules_verifier_pump_stall_ns_bucket",
		`herqules_proc_messages_total{pid="` + strconv.FormatInt(int64(p.PID()), 10) + `"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
	if code, _ := fetch("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz: status %d, want 200", code)
	}
	// The implied flight recorder freezes a report at a kill, so
	// /violations serves one.
	if code, _ := fetch("/violations"); code != http.StatusOK {
		t.Errorf("/violations: status %d, want 200", code)
	}
	kpid := sys.s.Kernel().Register()
	sys.s.Kernel().Kill(kpid, "facade test kill")
	if code, body := fetch("/violations/" + strconv.FormatInt(int64(kpid), 10)); code != http.StatusOK {
		t.Errorf("/violations/%d: status %d, want 200 (flight recorder not implied?)\n%s", kpid, code, body)
	}

	if err := sys.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Shutdown closes the endpoint.
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("endpoint still serving after Shutdown")
	}

	// A bind failure surfaces through HTTPAddr, not as a panic or a dead
	// System: the enforcement stack still works.
	bad := NewSystem(WithHTTPAddr("256.256.256.256:0"))
	if _, err := bad.HTTPAddr(); err == nil {
		t.Error("expected bind error from unroutable address")
	}
	if err := bad.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestNewChannelErrors: the facade propagates constructor failures and
// reports unknown kinds with their numeric value.
func TestNewChannelErrors(t *testing.T) {
	if _, err := NewChannel(ChannelKind(42)); err == nil {
		t.Fatal("unknown kind accepted")
	} else if !strings.Contains(err.Error(), "42") {
		t.Errorf("error %q does not carry the numeric kind", err)
	}
	for _, kind := range []ChannelKind{SharedRing, MessageQueue, Pipe, Socket, LWC, FPGA, UArchModel, UArchSim} {
		ch, err := NewChannel(kind)
		if err != nil || ch == nil {
			t.Errorf("NewChannel(%v) = %v, %v", kind, ch, err)
		}
	}
}
