package ipc

import (
	"runtime"
	"sync/atomic"
	"time"
)

// spinIterBudget bounds the cooperative-spin phase of the waits below: the
// first spinIterBudget pauses yield the processor to runnable goroutines
// (≈ 91 ns each on the 2-vCPU reference VM, so ≈ 23 µs in all), which is
// where a wait resolves when the peer is about to run. Past it spinWait (the
// LWC switch model) sleeps out the remainder, and a SharedRing wait parks
// until its peer's next cursor store.
const spinIterBudget = 256

// waiter is one side of a SharedRing: the flag it raises before it blocks
// and the one-slot channel its peer wakes it on. No ring wait sleeps on a
// timer: on the reference VM time.Sleep(20µs) returns after 1.06 ms (p50),
// so a side that slept resumed a tick after its peer had moved, and the
// drain began validating only once the producer had filled the ring and
// yielded. A parked side costs no CPU and resumes on its peer's next cursor
// store.
//
// No wake-up is lost where a side can block. The waiter stores parked and
// then loads its condition's cursor; at a fenced point the peer stores that
// cursor with a sequentially consistent store and then loads parked, so the
// waiter sees the new cursor, or the peer sees the flag, or both. When both
// do, the compare-and-swap on the flag decides: whoever takes it from true
// to false owns the one token, and the waiter takes a token for every raise
// it does not take back itself, so the channel never holds more than one. A
// token does not prove the condition: a waker that loaded the flag during
// one park may win the next, after the waiter has consumed what it woke
// for. So the waiter checks again and parks again.
//
// Every tail store of the drain is a fenced point, so a producer waiting on
// a full ring is always woken. The producer's head store is fenced only
// where the producer can stop sending and wait on the drain: a System-Call
// message, a full ring and Close (SharedRing.Send). Between those points it
// is Publish, a release store, and on amd64 the load of parked that follows
// may pass it: a drain that parks at that instant can miss the wake-up and
// sleep on a stale head. Nothing is lost by it. The slot and head are
// written, the drain is only late: its raised flag is in memory before it
// reads head, so a later Send's load sees it and wakes it, and the next
// fenced point does so at the latest, since it waits until every earlier
// store is visible before it loads the flag. The drain then reads the
// current head, so no message is skipped, reordered or delivered twice.
//
// parks and wakes count the side's blocking receives and the tokens its peer
// hands it. Both move only on those slow paths: they let a test see that a
// parked side stays parked.
type waiter struct {
	parked atomic.Bool
	parks  atomic.Uint32
	wakes  atomic.Uint32
	wake   chan struct{}
}

func newWaiter() waiter { return waiter{wake: make(chan struct{}, 1)} }

// wait returns once ready reports true. ready may become true only through
// a store the peer follows with w.wakeUp, and only this side calls wait.
func (w *waiter) wait(ready func() bool) {
	for i := 0; i < spinIterBudget; i++ {
		if ready() {
			return
		}
		runtime.Gosched()
	}
	for {
		w.parked.Store(true)
		if ready() && w.parked.CompareAndSwap(true, false) {
			return // no peer took the flag, so no token was sent
		}
		w.parks.Add(1)
		<-w.wake
		if ready() {
			return
		}
	}
}

// wakeUp releases the side parked on w, if any. Call it after the store that
// may make that side's condition true. While nobody is parked it costs one
// load.
//
// After the hand-off the waker yields. The runtime puts the woken goroutine
// in the waker's processor's run-next slot, which an idle processor may take
// only after a 3 µs usleep that lasts ≈ 60 µs on the reference VM: a woken
// drain resumed 47 µs after its token on average, and on ring_stream it
// often ended up sharing the producer's processor. Yielding runs the woken
// side at once and leaves the waker in the global run queue, where the
// processor the wake-up started takes it without that delay. The load is
// inlined into every cursor store; the hand-off is not.
func (w *waiter) wakeUp() {
	if w.parked.Load() {
		w.handOff()
	}
}

func (w *waiter) handOff() {
	if w.parked.CompareAndSwap(true, false) {
		w.wakes.Add(1)
		w.wake <- struct{}{}
		runtime.Gosched()
	}
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
