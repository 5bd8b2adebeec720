package experiments

import (
	"fmt"
	"strings"
	"sync"

	"herqules/internal/ipc"
	"herqules/internal/policy"
	"herqules/internal/verifier"
)

// This file implements `hqbench -exp policies`: a RIPE-style detection
// matrix over the policy registry. Every injected fault class runs against
// every registered policy with the flight recorder armed, and each cell is
// checked twice over: through the live violation list (which policy caught
// it, did the kill reach the gate?) and through the frozen postmortem an
// operator gets afterwards (does the report blame the same policy?).

// policyKillGate records kernel kills so matrix cells can assert both that a
// fault was caught and what reason the kernel would have seen.
type policyKillGate struct {
	mu    sync.Mutex
	kills map[int32]string
}

func (g *policyKillGate) NotifySyncReady(pid int32) {}
func (g *policyKillGate) Kill(pid int32, reason string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.kills[pid]; !ok {
		g.kills[pid] = reason
	}
}
func (g *policyKillGate) reason(pid int32) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.kills[pid]
}

// sealStream stamps each message with its stream ordinal and the MAC an
// ipc.SealSender would have produced, in place.
func sealStream(ms []ipc.Message, key ipc.MacKey) {
	for i := range ms {
		ms[i].Seq = uint64(i + 1)
		ms[i].Mac = ipc.MacSeal(key, ms[i], ms[i].Seq)
	}
}

func incStream(n int) []ipc.Message {
	ms := make([]ipc.Message, n)
	for i := range ms {
		ms[i] = ipc.Message{Op: ipc.OpCounterInc, PID: 1, Arg1: 1}
	}
	return ms
}

// policyInjector produces one faulty message stream for the matrix. When the
// verifying set contains the hmac sealer the clean stream is sealed under the
// victim's key first and the fault applied afterwards — transport faults
// tamper with sealed bytes, they do not get to re-seal.
type policyInjector struct {
	name   string
	detail string
	build  func(sealed bool, victim, foreign ipc.MacKey) []ipc.Message
	// caughtBy is the set of registry policies that must detect this fault;
	// every other policy must pass the stream clean.
	caughtBy map[string]bool
}

func policyInjectors() []policyInjector {
	sealIf := func(on bool, ms []ipc.Message, key ipc.MacKey) []ipc.Message {
		if on {
			sealStream(ms, key)
		}
		return ms
	}
	return []policyInjector{
		{
			name:   "clean",
			detail: "well-formed stream, no fault",
			build: func(sealed bool, victim, _ ipc.MacKey) []ipc.Message {
				return sealIf(sealed, incStream(4), victim)
			},
			caughtBy: map[string]bool{},
		},
		{
			name:   "ptr-corrupt",
			detail: "function-pointer check against overwritten value",
			build: func(sealed bool, victim, _ ipc.MacKey) []ipc.Message {
				return sealIf(sealed, []ipc.Message{
					{Op: ipc.OpPointerDefine, PID: 1, Arg1: 0x1000, Arg2: 0x4000},
					{Op: ipc.OpPointerCheck, PID: 1, Arg1: 0x1000, Arg2: 0xbad},
				}, victim)
			},
			caughtBy: map[string]bool{"cfi": true},
		},
		{
			name:   "uaf",
			detail: "access inside a freed allocation",
			build: func(sealed bool, victim, _ ipc.MacKey) []ipc.Message {
				return sealIf(sealed, []ipc.Message{
					{Op: ipc.OpAllocCreate, PID: 1, Arg1: 0x1000, Arg2: 64},
					{Op: ipc.OpAllocDestroy, PID: 1, Arg1: 0x1000},
					{Op: ipc.OpAllocCheck, PID: 1, Arg1: 0x1010},
				}, victim)
			},
			caughtBy: map[string]bool{"memsafety": true, "temporal": true},
		},
		{
			name:   "double-free",
			detail: "second destroy of the same allocation",
			build: func(sealed bool, victim, _ ipc.MacKey) []ipc.Message {
				return sealIf(sealed, []ipc.Message{
					{Op: ipc.OpAllocCreate, PID: 1, Arg1: 0x1000, Arg2: 64},
					{Op: ipc.OpAllocDestroy, PID: 1, Arg1: 0x1000},
					{Op: ipc.OpAllocDestroy, PID: 1, Arg1: 0x1000},
				}, victim)
			},
			caughtBy: map[string]bool{"memsafety": true, "temporal": true},
		},
		{
			name:   "bitflip",
			detail: "transport flips one payload bit post-seal",
			build: func(sealed bool, victim, _ ipc.MacKey) []ipc.Message {
				ms := sealIf(sealed, incStream(4), victim)
				ms[2].Arg1 ^= 1 << 5 // after sealing: the tag no longer matches
				return ms
			},
			caughtBy: map[string]bool{"hmac": true},
		},
		{
			name:   "replay-dup",
			detail: "transport delivers one sealed message twice",
			build: func(sealed bool, victim, _ ipc.MacKey) []ipc.Message {
				ms := sealIf(sealed, incStream(4), victim)
				out := append([]ipc.Message{}, ms[:2]...)
				out = append(out, ms[1]) // replayed: same ordinal, same tag
				return append(out, ms[2:]...)
			},
			caughtBy: map[string]bool{"hmac": true},
		},
		{
			name:   "splice",
			detail: "message from another process's stream, PID rewritten",
			build: func(sealed bool, victim, foreign ipc.MacKey) []ipc.Message {
				ms := sealIf(sealed, incStream(4), victim)
				sp := ipc.Message{Op: ipc.OpCounterInc, PID: 2, Arg1: 0x5eed, Seq: 3}
				if sealed {
					sp.Mac = ipc.MacSeal(foreign, sp, sp.Seq) // the other process's key
				}
				sp.PID = 1 // attacker redirects it onto the victim's stream
				ms[2] = sp
				return ms
			},
			caughtBy: map[string]bool{"hmac": true},
		},
	}
}

// PolicyMatrixCell is one (policy, injector) measurement. Blamed, Window and
// Decisions describe the frozen forensic report and are zero when the fault
// was not caught (no kill, so no report may exist).
type PolicyMatrixCell struct {
	Policy    string `json:"policy"`
	Injector  string `json:"injector"`
	Caught    bool   `json:"caught"`
	Expected  bool   `json:"expected"`
	Reason    string `json:"reason,omitempty"` // kill reason the gate saw
	Blamed    string `json:"blamed,omitempty"` // report.Policy
	Window    int    `json:"window,omitempty"` // flight records frozen in the report
	Decisions int    `json:"decisions,omitempty"`
}

// runMatrixCell runs one injected fault against one registered policy in
// isolation: single-policy verifier, kill-on-violation, flight recorder
// armed, CheckSeq off so sequence enforcement cannot mask attribution.
//
// A caught fault must be attributed to that policy in the violation list,
// must have reached the gate as a kill, and must have frozen a report that
// blames the same policy with a fatal decision and a non-empty window. A
// fault the policy does not cover must leave no violation and no report.
func runMatrixCell(name string, inj policyInjector) (PolicyMatrixCell, error) {
	cell := PolicyMatrixCell{Policy: name, Injector: inj.name, Expected: inj.caughtBy[name]}
	factory, err := policy.SetFactory(name)
	if err != nil {
		return cell, fmt.Errorf("%s/%s: %v", name, inj.name, err)
	}
	g := &policyKillGate{kills: make(map[int32]string)}
	v := verifier.New(factory, g)
	v.KillOnViolation = true
	v.EnableFlightRecorder(128)
	kr := policy.NewKeyringSeeded(0xbadc0de)
	v.SetKeyring(kr)
	kr.Program(1) // the kernel programs keys before the process is visible
	kr.Program(2)
	v.ProcessStarted(1)

	sealed := name == "hmac"
	victim, _ := kr.Key(1)
	foreign, _ := kr.Key(2)
	for _, m := range inj.build(sealed, victim, foreign) {
		v.Deliver(m)
	}

	viols := v.Violations(1)
	rep, frozen := v.Forensics(1)
	cell.Caught = len(viols) > 0
	cell.Reason = g.reason(1)
	if frozen {
		cell.Blamed, cell.Window, cell.Decisions = rep.Policy, len(rep.Window), len(rep.Decisions)
	}

	fail := func(format string, args ...any) (PolicyMatrixCell, error) {
		return cell, fmt.Errorf("%s/%s: "+format, append([]any{name, inj.name}, args...)...)
	}
	switch {
	case cell.Expected && !cell.Caught:
		return fail("missed")
	case !cell.Expected && cell.Caught:
		return fail("false positive: %v", viols[0])
	case !cell.Caught:
		if frozen {
			return fail("no violation, yet a forensic report was frozen (policy %q, reason %q)",
				rep.Policy, rep.KillReason)
		}
		return cell, nil
	}

	for _, viol := range viols {
		if viol.Policy != name {
			return fail("violation attributed to %q", viol.Policy)
		}
	}
	if cell.Reason == "" {
		return fail("caught but no kill reached the gate")
	}
	if name == "hmac" && !strings.Contains(cell.Reason, "message authentication") {
		return fail("kill not attributed as authentication: %q", cell.Reason)
	}
	switch {
	case !frozen:
		return fail("caught but no forensic report frozen")
	case rep.Policy != name:
		return fail("report attributes the kill to %q", rep.Policy)
	case rep.KillReason == "":
		return fail("report has no kill reason")
	case len(rep.Window) == 0:
		return fail("report window is empty")
	}
	for _, d := range rep.Decisions {
		if d.Fatal && d.Policy == name {
			return cell, nil
		}
	}
	return fail("no fatal %s decision in the report's trail", name)
}

// PoliciesReport is the JSON form of the detection matrix.
type PoliciesReport struct {
	Policies []string           `json:"policies"`
	Matrix   []PolicyMatrixCell `json:"matrix"`
}

// Policies runs the detection matrix behind `hqbench -exp policies` and
// returns the rendered matrix, its JSON form, and an error listing every
// miss, false positive, misattribution or stray report. The text is complete
// on the error path too: a failing run shows which cells failed.
func Policies(Config) (Report, error) {
	names := policy.Names() // sorted
	rep := &PoliciesReport{Policies: names}

	var sb strings.Builder
	var faults []string
	sb.WriteString("Detection matrix (rows: injected fault; CAUGHT must match the policy's contract):\n")
	fmt.Fprintf(&sb, "%-12s", "fault")
	for _, n := range names {
		fmt.Fprintf(&sb, " %-10s", n)
	}
	sb.WriteString("\n")
	for _, inj := range policyInjectors() {
		fmt.Fprintf(&sb, "%-12s", inj.name)
		for _, n := range names {
			c, err := runMatrixCell(n, inj)
			rep.Matrix = append(rep.Matrix, c)
			if err != nil {
				faults = append(faults, err.Error())
			}
			mark := "-"
			switch {
			case c.Caught && c.Expected:
				mark = "CAUGHT"
			case c.Caught:
				mark = "FALSE+"
			case c.Expected:
				mark = "MISS!"
			}
			fmt.Fprintf(&sb, " %-10s", mark)
		}
		fmt.Fprintf(&sb, "  (%s)\n", inj.detail)
	}

	sb.WriteString("\nPostmortems (every CAUGHT cell froze a report; blamed must equal policy):\n")
	fmt.Fprintf(&sb, "%-12s %-10s %-10s %7s %10s  %s\n",
		"fault", "policy", "blamed", "window", "decisions", "kill reason")
	for _, c := range rep.Matrix {
		if c.Caught {
			fmt.Fprintf(&sb, "%-12s %-10s %-10s %7d %10d  %.48s\n",
				c.Injector, c.Policy, c.Blamed, c.Window, c.Decisions, c.Reason)
		}
	}
	sb.WriteString("\nregistry: " + strings.Join(names, ", ") + "\n")

	return Report{sb.String(), rep}, failures("policies: detection matrix", faults)
}
