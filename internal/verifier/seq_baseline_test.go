package verifier

import (
	"testing"

	"herqules/internal/ipc"
)

// TestSeqBaselineKnownAtRegistration pins the fix the model checker flushed
// out: the expected message counter is established at registration (first
// Send is always Seq 1, §3.1.1), not by the first observed message. A
// process whose FIRST delivered message is out of order must die — under
// the old first-message-as-baseline rule it silently passed, and a
// reordered sync could release the gate with earlier messages unvalidated.
func TestSeqBaselineKnownAtRegistration(t *testing.T) {
	g := &countingGate{}
	v := New(cfiFactory, g)
	v.CheckSeq = true
	v.ProcessStarted(1)
	// Seq 2 arrives first: under reorder this is the sync overtaking the
	// data message. Must be fatal immediately.
	v.Deliver(ipc.Message{Op: ipc.OpSyscall, PID: 1, Seq: 2})
	if len(g.kills) != 1 {
		t.Fatalf("out-of-order first message: kills = %d, want 1", len(g.kills))
	}
	if len(g.syncs) != 0 {
		t.Fatal("reordered sync released the gate despite the counter gap")
	}

	// The happy path is untouched: Seq 1 first is clean.
	g2 := &countingGate{}
	v2 := New(cfiFactory, g2)
	v2.CheckSeq = true
	v2.ProcessStarted(1)
	v2.Deliver(ipc.Message{Op: ipc.OpCounterInc, PID: 1, Seq: 1})
	v2.Deliver(ipc.Message{Op: ipc.OpSyscall, PID: 1, Seq: 2})
	if len(g2.kills) != 0 {
		t.Fatalf("clean in-order stream killed: %d kills", len(g2.kills))
	}
	if len(g2.syncs) != 1 {
		t.Fatalf("clean sync not released: syncs = %d, want 1", len(g2.syncs))
	}
}

// TestSeqBaselineForkedChild pins the same rule for forked children: the
// child's channel counter restarts, so its first message must be Seq 1.
func TestSeqBaselineForkedChild(t *testing.T) {
	g := &countingGate{}
	v := New(cfiFactory, g)
	v.CheckSeq = true
	v.ProcessStarted(1)
	v.Deliver(ipc.Message{Op: ipc.OpCounterInc, PID: 1, Seq: 1})
	v.ProcessForked(1, 2)
	v.Deliver(ipc.Message{Op: ipc.OpCounterInc, PID: 2, Seq: 5})
	if len(g.kills) != 1 || g.kills[0] != 2 {
		t.Fatalf("forked child with bogus first Seq: kills = %v, want [2]", g.kills)
	}
}
