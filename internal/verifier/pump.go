package verifier

import (
	"errors"
	"sync"
	"time"

	"herqules/internal/ipc"
)

// Pump consumes messages from r until the channel closes or fails, and
// evaluates them on the calling goroutine: it is the one drain loop, and
// there is no queue between the read and the policy (§3.4). Every receiver
// — ring, replay, fd framing, instrumented/chaos wrappers, hqnet sessions —
// goes through it by ipc.Receiver.RecvBatch, one interface call per burst:
//
//  1. A burst is received into the one DefaultBatchSize buffer the loop owns
//     for the life of the source. A message is written once, by RecvBatch,
//     and every later stage reads it in place.
//  2. The burst is cut into runs of one process's messages (nextRun).
//     Production sources are per-process channels, so their bursts are
//     single runs; only a forked child riding its parent's channel, or a
//     synthetic multi-PID stream, splits.
//  3. Each run is delivered under its process's context lock (safeDeliver)
//     before the next is looked at, and the gate calls it produced are made
//     once the lock has dropped. The loop keeps the context it delivered to
//     last, so the PID → context map is read only when the PID changes or
//     the context exits. Then the loop reads again.
//
// Messages for one process arrive over one channel, which one goroutine
// drains, delivering synchronously: per-process ordering (and CheckSeq) holds
// under any number of concurrent sources, and when Pump returns every message
// r produced has been evaluated and every kill it earned has been issued. A
// loop that is delivering is not reading, so a source that outruns its
// policies backs up in the channel itself (ring slots, socket buffer, client
// replay ring) and the verifier never holds more than one burst of it.
//
// Every receive error is terminal, at its first occurrence: the messages
// received alongside it are delivered, the source is treated as failed, the
// process the receiver attributes the error to (if any) is killed, and the
// loop returns. Nothing is retried: a dropped, reordered or overwritten
// message is a policy violation (§3.1.1), and a source that goes silent
// instead ends in an epoch kill (§2.2).
func (v *Verifier) Pump(r ipc.Receiver) {
	tm := &v.tm
	buf := make([]ipc.Message, DefaultBatchSize)
	var pc *procCtx
	for {
		recvStart := time.Now()
		n, ok, err := r.RecvBatch(buf)
		// Time spent inside RecvBatch is (almost entirely) time the drain
		// loop stalled waiting for the producer.
		tm.pumpStall.Observe(uint64(time.Since(recvStart)))
		v.deliverRuns(buf[:n], &pc)
		if err != nil {
			tm.recvErrs.Inc()
			v.killAttributed(err)
			return
		}
		if !ok {
			return
		}
	}
}

// ErrPumpClosed is returned by PumpSet.Attach after Close has been called.
var ErrPumpClosed = errors.New("verifier: pump set closed")

// PumpSet drains a dynamic set of receivers into one verifier — the
// verifier-side heart of the multi-process supervisor: one monitored program
// per attached channel, each on a drain goroutine of its own (Pump), all
// validating into the same verifier. Sources register as processes launch
// (Attach) and deregister themselves once their channel has closed; Close
// waits for every attached source to finish, so no received message is ever
// dropped by shutdown. The set itself runs nothing: its only goroutines are
// the ones Attach starts.
type PumpSet struct {
	v *Verifier

	mu     sync.Mutex
	active int
	closed bool
	drains sync.WaitGroup
}

// NewPumpSet creates an empty pump set over v.
func (v *Verifier) NewPumpSet() *PumpSet {
	return &PumpSet{v: v}
}

// Attach registers r as a new message source and starts draining it in a
// dedicated goroutine. The returned channel is closed once r has been fully
// drained (its channel closed or failed) — which, delivery being synchronous,
// is after every one of its messages has been evaluated and any kill the
// verifier issued for them has been made — so a caller that waits on done
// before reading per-PID verifier state (or tearing the process down)
// observes all of the source's deliveries, with no Close required first.
func (ps *PumpSet) Attach(r ipc.Receiver) (done <-chan struct{}, err error) {
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return nil, ErrPumpClosed
	}
	ps.active++
	ps.drains.Add(1)
	ps.mu.Unlock()

	ch := make(chan struct{})
	go func() {
		defer ps.drains.Done()
		ps.v.Pump(r)
		ps.mu.Lock()
		ps.active--
		ps.mu.Unlock()
		close(ch)
	}()
	return ch, nil
}

// Sources reports the number of sources currently attached and draining.
func (ps *PumpSet) Sources() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.active
}

// Close waits for every attached source to finish draining. Attach fails
// with ErrPumpClosed from the moment Close is entered; Close itself is
// idempotent. Sources still attached block Close until their channels close,
// so the owner must close (or have closed) every monitored program's channel
// first — the supervisor's Shutdown ordering.
func (ps *PumpSet) Close() {
	ps.mu.Lock()
	ps.closed = true
	ps.mu.Unlock()
	ps.drains.Wait()
}
