package verifier

import (
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
