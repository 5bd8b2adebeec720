package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/policy"
	"herqules/internal/supervisor"
	"herqules/internal/telemetry"
)

// StatsResult is one run of the component-telemetry experiment: a concurrent
// multi-process pipeline (kernel gate + verifier + per-process
// shared-memory channels) with the kernel's and the verifier's telemetry
// wired, reported as a snapshot diff over exactly the measured interval.
type StatsResult struct {
	Procs    int
	Messages int
	// Sent counts the sends the channels accepted: every one of them is
	// either validated or dropped after its process died.
	Sent    uint64
	Elapsed time.Duration
	Snap    telemetry.Snapshot
}

// statsSyncEvery is how many define/check/invalidate triples a monitored
// process emits between synchronized system calls.
const statsSyncEvery = 64

// Stats drives `procs` concurrent monitored processes, each admitted into
// one System over its own shared-memory ring, through the full
// kernel/verifier stack: pointer-integrity traffic with per-process sequence
// counters (CheckSeq on), gated system calls every statsSyncEvery triples
// (populating the syscall stall-time histogram), and one deliberate
// pointer-integrity violation on the first process near the end of its
// stream — so the snapshot also shows the kill path and the post-kill
// message drops.
func Stats(procs, messages int) *StatsResult {
	if procs <= 0 {
		procs = 8
	}
	if messages <= 0 {
		messages = 1 << 20
	}
	perProc := messages / procs
	if perProc < 4*statsSyncEvery {
		perProc = 4 * statsSyncEvery
	}

	m := telemetry.New(0)
	sys := supervisor.New(supervisor.Config{
		// The §4.1 CFI policy plus the §2 counter, per process.
		Policies: func() []policy.Policy {
			return []policy.Policy{policy.NewCFI(), policy.NewCounter()}
		},
		CheckSeq:        true,
		KillOnViolation: true,
		Metrics:         m,
	})
	defer sys.Shutdown(context.Background())
	k := sys.Kernel()

	before := m.Snapshot()
	start := time.Now()

	var senders sync.WaitGroup
	var sent atomic.Uint64
	for p := 0; p < procs; p++ {
		ch := ipc.NewSharedRing(1 << 12)
		proc, err := sys.Admit(ch.Receiver)
		if err != nil {
			panic("experiments: stats: " + err.Error()) // nothing has shut sys down
		}
		pid := proc.PID()

		senders.Add(1)
		go func(p int) {
			defer senders.Done()
			defer proc.Close()
			defer ch.Close()
			send := func(m ipc.Message) {
				if ch.Sender.Send(m) == nil {
					sent.Add(1)
				}
			}
			corruptAt := -1
			if p == 0 {
				corruptAt = perProc / 3 * 9 / 10 // violation late in the stream
			}
			for i := 0; i < perProc/3; i++ {
				addr := uint64(0x1000 + 8*(i%4096))
				if i == corruptAt {
					// Check a pointer that was never defined: a
					// pointer-integrity violation the verifier must
					// kill for (§4.1.3).
					send(ipc.Message{Op: ipc.OpPointerCheck, PID: pid, Arg1: 0xdead, Arg2: 0xbeef})
					continue
				}
				send(ipc.Message{Op: ipc.OpPointerDefine, PID: pid, Arg1: addr, Arg2: addr + 1})
				send(ipc.Message{Op: ipc.OpPointerCheck, PID: pid, Arg1: addr, Arg2: addr + 1})
				send(ipc.Message{Op: ipc.OpPointerInvalidate, PID: pid, Arg1: addr})
				if i%statsSyncEvery == statsSyncEvery-1 {
					send(ipc.Message{Op: ipc.OpSyscall, PID: pid, Arg1: 1})
					if err := k.SyscallEnter(pid, 1); err != nil {
						return // killed (or exited): stop emitting
					}
				}
			}
		}(p)
	}
	senders.Wait()
	elapsed := time.Since(start)

	return &StatsResult{
		Procs:    procs,
		Messages: messages,
		Sent:     sent.Load(),
		Elapsed:  elapsed,
		Snap:     m.Snapshot().Diff(before),
	}
}

// FormatStats renders the component-level breakdown: headline drain rate
// and the full snapshot (counters with per-lane breakdowns, histograms with
// p50/p90/p99).
func FormatStats(r *StatsResult) string {
	var sb strings.Builder
	delivered := r.Snap.Counters["verifier.messages"].Total
	fmt.Fprintf(&sb, "procs=%d delivered=%d elapsed=%s rate=%.0f msgs/sec\n\n",
		r.Procs, delivered, r.Elapsed.Round(time.Microsecond),
		float64(delivered)/r.Elapsed.Seconds())
	sb.WriteString(r.Snap.Format())
	return sb.String()
}
