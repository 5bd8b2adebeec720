package verifier

import (
	"strings"
	"testing"

	"herqules/internal/ipc"
	"herqules/internal/telemetry"
)

// TestForensicsViolationFreeze is the happy-path postmortem: a CFI violation
// kills the process, and the frozen report attributes the kill, carries the
// message window up to and including the violating stamp, and marks the
// fatal decision in the trail.
func TestForensicsViolationFreeze(t *testing.T) {
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.EnableFlightRecorder(64)
	v.ProcessStarted(1)
	v.Deliver(ipc.Message{Op: ipc.OpPointerDefine, PID: 1, Arg1: 0x10, Arg2: 0x20, Seq: 1})
	v.Deliver(ipc.Message{Op: ipc.OpPointerCheck, PID: 1, Arg1: 0x10, Arg2: 0x20, Seq: 2})
	v.Deliver(ipc.Message{Op: ipc.OpPointerCheck, PID: 1, Arg1: 0x10, Arg2: 0xbad, Seq: 3})

	rep, ok := v.Forensics(1)
	if !ok {
		t.Fatal("no forensic report after a fatal violation")
	}
	if rep.Policy != "cfi" {
		t.Errorf("report attributes %q, want cfi", rep.Policy)
	}
	if rep.KillReason == "" || g.kills[1] != rep.KillReason {
		t.Errorf("kill reason %q does not match the gate's %q", rep.KillReason, g.kills[1])
	}
	if rep.Messages != 3 {
		t.Errorf("Messages = %d, want 3", rep.Messages)
	}
	if rep.FrozenUnixNanos == 0 {
		t.Error("report has no freeze timestamp")
	}

	// Window: the registration event, 3 message stamps (last one a
	// violation), then the kill event.
	var msgs, lifecycle int
	for _, e := range rep.Window {
		switch e.Kind {
		case "message":
			msgs++
		case "lifecycle":
			lifecycle++
		}
	}
	if msgs != 3 || lifecycle != 2 {
		t.Fatalf("window has %d message / %d lifecycle records, want 3/2: %+v", msgs, lifecycle, rep.Window)
	}
	if first := rep.Window[0]; first.Code != "registered" {
		t.Errorf("window does not open with the registration event: %+v", first)
	}
	last := rep.Window[len(rep.Window)-1]
	if last.Kind != "lifecycle" || last.Code != "killed" {
		t.Errorf("window does not end with the kill event: %+v", last)
	}
	viol := rep.Window[len(rep.Window)-2]
	if viol.Code != "violation" || viol.Op != "pointer-check" || viol.Seq != 3 {
		t.Errorf("violating stamp wrong: %+v", viol)
	}

	var fatal int
	for _, d := range rep.Decisions {
		if d.Fatal {
			fatal++
			if d.Policy != "cfi" {
				t.Errorf("fatal decision blames %q", d.Policy)
			}
		}
	}
	if fatal != 1 {
		t.Errorf("%d fatal decisions in the trail, want 1", fatal)
	}
}

// TestForensicsSeqViolation pins attribution of the §3.1.1 counter check: a
// sequence gap is not a policy in the chain, but the report must still name
// "seq" and the window must carry the seq-violation stamp.
func TestForensicsSeqViolation(t *testing.T) {
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.CheckSeq = true
	v.EnableFlightRecorder(32)
	v.ProcessStarted(1)
	v.Deliver(ipc.Message{Op: ipc.OpCounterInc, PID: 1, Arg1: 1, Seq: 1})
	v.Deliver(ipc.Message{Op: ipc.OpCounterInc, PID: 1, Arg1: 1, Seq: 5}) // gap

	rep, ok := v.Forensics(1)
	if !ok {
		t.Fatal("no report after a counter violation")
	}
	if rep.Policy != "seq" {
		t.Errorf("report attributes %q, want seq", rep.Policy)
	}
	if !strings.Contains(rep.KillReason, "counter gap") {
		t.Errorf("kill reason %q does not describe the gap", rep.KillReason)
	}
	found := false
	for _, e := range rep.Window {
		if e.Code == "seq-violation" && e.Seq == 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("no seq-violation stamp in the window: %+v", rep.Window)
	}
}

// TestForensicsKernelKill covers kills the verifier never decided: the kernel
// reports the death (epoch expiry, wedge watchdog) and the freeze happens at
// ProcessKilled with the kernel's reason and no attributed policy.
func TestForensicsKernelKill(t *testing.T) {
	v := New(cfiFactory, newFakeGate())
	v.EnableFlightRecorder(32)
	v.ProcessStarted(1)
	v.Deliver(ipc.Message{Op: ipc.OpPointerDefine, PID: 1, Arg1: 0x10, Arg2: 0x20, Seq: 1})
	v.ProcessKilled(1, "synchronization epoch expired at syscall 3")

	rep, ok := v.Forensics(1)
	if !ok {
		t.Fatal("no report after a kernel-originated kill")
	}
	if rep.Policy != "" {
		t.Errorf("kernel kill attributed to policy %q, want none", rep.Policy)
	}
	if rep.KillReason != "synchronization epoch expired at syscall 3" {
		t.Errorf("kill reason %q", rep.KillReason)
	}
	if len(rep.Decisions) != 0 {
		t.Errorf("decision trail %+v for a process that never violated", rep.Decisions)
	}
}

// TestForensicsPoisonedProcess: a poison closes the process's black box with
// the poison event and the poison fields set, and leaves a neighbour's alone.
func TestForensicsPoisonedProcess(t *testing.T) {
	v := New(cfiFactory, newFakeGate())
	v.EnableFlightRecorder(32)
	v.ProcessStarted(1)
	v.ProcessStarted(2)
	v.Deliver(ipc.Message{Op: ipc.OpPointerDefine, PID: 1, Arg1: 0x10, Arg2: 0x20, Seq: 1})
	v.PoisonProcess(1, "verifier poisoned: injected delivery-path failure")

	rep, ok := v.Forensics(1)
	if !ok {
		t.Fatal("no report after poison")
	}
	if !rep.Poisoned || !strings.Contains(rep.PoisonReason, "injected") {
		t.Errorf("poison not recorded: poisoned=%v reason=%q", rep.Poisoned, rep.PoisonReason)
	}
	if rep.Policy != "" {
		t.Errorf("poison kill attributed to policy %q", rep.Policy)
	}
	found := false
	for _, e := range rep.Window {
		if e.Code == "poisoned" {
			found = true
		}
	}
	if !found {
		t.Errorf("no poisoned event in the window: %+v", rep.Window)
	}
	if _, ok := v.Forensics(2); ok {
		t.Error("the neighbour's black box was frozen by another process's poison")
	}
}

// TestForensicsFrozenRingStable: once the report is frozen, later in-flight
// messages are dropped and counted, and neither the window nor the report
// mutates — the black box must reflect the kill instant, not the drain tail.
func TestForensicsFrozenRingStable(t *testing.T) {
	v := New(cfiFactory, newFakeGate())
	v.EnableFlightRecorder(32)
	v.ProcessStarted(1)
	v.Deliver(ipc.Message{Op: ipc.OpPointerCheck, PID: 1, Arg1: 0x10, Arg2: 0xbad, Seq: 1})

	rep, ok := v.Forensics(1)
	if !ok {
		t.Fatal("no report")
	}
	window, total := len(rep.Window), rep.RecordsTotal

	for i := uint64(2); i < 10; i++ {
		v.Deliver(ipc.Message{Op: ipc.OpCounterInc, PID: 1, Arg1: 1, Seq: i})
	}
	rep2, ok := v.Forensics(1)
	if !ok {
		t.Fatal("report disappeared")
	}
	if rep2 != rep {
		t.Error("freeze is not first-wins: a second report replaced the original")
	}
	if len(rep2.Window) != window || rep2.RecordsTotal != total {
		t.Errorf("frozen report mutated: window %d→%d, total %d→%d",
			window, len(rep2.Window), total, rep2.RecordsTotal)
	}
	if st, ok := v.ProcStats(1); !ok || st.Dropped != 8 {
		t.Errorf("post-kill messages not counted as dropped: %+v", st)
	}
}

// TestForensicsDisabledRecorder: with no flight recorder armed there is no
// window to anchor a postmortem, so Forensics must report absence rather
// than a hollow report.
func TestForensicsDisabledRecorder(t *testing.T) {
	g := newFakeGate()
	v := New(cfiFactory, g)
	v.ProcessStarted(1)
	v.Deliver(ipc.Message{Op: ipc.OpPointerCheck, PID: 1, Arg1: 0x10, Arg2: 0xbad, Seq: 1})
	if g.kills[1] == "" {
		t.Fatal("violation did not kill")
	}
	if rep, ok := v.Forensics(1); ok {
		t.Fatalf("recorder disarmed but a report exists: %+v", rep)
	}
}

// TestViolationsByPolicyCounts: the per-policy counters behind the
// herqules_violations_total series aggregate across processes and survive
// context teardown.
func TestViolationsByPolicyCounts(t *testing.T) {
	v := New(cfiFactory, newFakeGate())
	v.CheckSeq = true
	for pid := int32(1); pid <= 3; pid++ {
		v.ProcessStarted(pid)
	}
	// Two cfi kills and one seq kill.
	v.Deliver(ipc.Message{Op: ipc.OpPointerCheck, PID: 1, Arg1: 0x10, Arg2: 0xbad, Seq: 1})
	v.Deliver(ipc.Message{Op: ipc.OpPointerCheck, PID: 2, Arg1: 0x10, Arg2: 0xbad, Seq: 1})
	v.Deliver(ipc.Message{Op: ipc.OpCounterInc, PID: 3, Arg1: 1, Seq: 1})
	v.Deliver(ipc.Message{Op: ipc.OpCounterInc, PID: 3, Arg1: 1, Seq: 1}) // duplicate

	v.ProcessExited(1) // teardown must not erase the aggregate

	got := v.ViolationsByPolicy()
	if got["cfi"] != 2 || got["seq"] != 1 {
		t.Errorf("ViolationsByPolicy = %v, want cfi:2 seq:1", got)
	}
}

// TestStampFlightEventRelay: the kernel-side stamper lands lifecycle events
// in the right process's ring, and is a no-op when the recorder is disarmed.
func TestStampFlightEventRelay(t *testing.T) {
	v := New(cfiFactory, newFakeGate())
	v.EnableFlightRecorder(32)
	v.ProcessStarted(1)
	v.StampFlightEvent(1, telemetry.FlightGateStall, 12345)
	v.StampFlightEvent(2, telemetry.FlightGateStall, 1) // unknown pid: ignored
	v.ProcessKilled(1, "test freeze")

	rep, ok := v.Forensics(1)
	if !ok {
		t.Fatal("no report")
	}
	found := false
	for _, e := range rep.Window {
		if e.Code == "gate-stall" && e.Value == 12345 {
			found = true
		}
	}
	if !found {
		t.Errorf("gate-stall event missing from the window: %+v", rep.Window)
	}

	// Disarmed verifier: the relay must not panic or create contexts.
	v2 := New(cfiFactory, newFakeGate())
	v2.ProcessStarted(1)
	v2.StampFlightEvent(1, telemetry.FlightGateStall, 1)
}
