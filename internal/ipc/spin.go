package ipc

import (
	"runtime"
	"time"
)

// spinIterBudget bounds the cooperative-spin phase of the wait helpers below:
// past it a wait sleeps instead of burning further cycles. Shared by the
// fixed-duration spinWait (the LWC switch model) and the condition-poll
// pollBackoff (ring full/empty waits).
const spinIterBudget = 256

// pollSleepQuantum is one sleep step of a poll loop that has exhausted its
// cooperative-spin budget: a long stall costs scheduler wakeups, not a pinned
// core. The value is a request, not the latency. On the 2-vCPU reference VM
// time.Sleep(20µs) returns after 1.08 ms (p10 1.05 ms, p50 1.08–1.13 ms, idle
// or beside a busy goroutine), so a waiter that reaches this step resumes a
// timer tick after the condition clears, whatever is written here. That
// millisecond is the live ring's deficit against replay; DESIGN.md "Hot path
// anatomy" records why a park/wake ring that removes it was measured and not
// built on this host.
const pollSleepQuantum = 20 * time.Microsecond

// pollBackoff paces an unbounded condition-poll loop (ring full on send, ring
// empty on receive): the first spinIterBudget pauses yield the processor to
// runnable goroutines — the common case resolves here, because the peer is
// usually about to run — and every pause after that sleeps pollSleepQuantum.
// A stalled peer therefore costs bounded CPU instead of pinning a core, which
// is what used to happen when a wedged verifier left a producer hot-spinning
// runtime.Gosched in SharedRing.Send. Declare a fresh pollBackoff per wait
// episode; it must not be shared across goroutines.
type pollBackoff struct{ iters int }

// pause burns one backoff step.
func (b *pollBackoff) pause() {
	b.iters++
	if b.iters <= spinIterBudget {
		runtime.Gosched()
		return
	}
	time.Sleep(pollSleepQuantum)
}

// spinWait waits for roughly d and returns how many loop iterations it took.
// The typical LWC switch (~2µs) resolves inside the cooperative-spin phase —
// runtime.Gosched yields the processor to runnable goroutines instead of hot-
// looping on time.Now — which keeps the Table 2 calibration intact; any wait
// that outlives the iteration budget sleeps out the remainder, so the CPU
// burned per call is bounded by the budget no matter how large d is (the old
// `for time.Now().Before(deadline) {}` pinned a core for the full duration).
func spinWait(d time.Duration) (iters int) {
	deadline := time.Now().Add(d)
	for {
		now := time.Now()
		if !now.Before(deadline) {
			return iters
		}
		iters++
		if iters <= spinIterBudget {
			runtime.Gosched()
			continue
		}
		// Budget burnt: hand the remainder to the scheduler. One sleep
		// normally suffices; the loop re-checks in case Sleep wakes early.
		time.Sleep(deadline.Sub(now))
	}
}
