package verifier

import (
	"errors"
	"sync"
	"time"

	"herqules/internal/dsched"
	"herqules/internal/ipc"
)

// pipeline is the sharded delivery fan-out shared by Pump and PumpSet: one
// bounded queue plus worker goroutine per shard, fed zero-copy from a batch
// arena (arena.go). Any number of drain loops may route bursts into the same
// pipeline concurrently; the queues are channels, so enqueueing is safe
// without further locking.
//
// Hot-path anatomy (see DESIGN.md "Hot path anatomy" for the full story):
//
//  1. There is one drain loop, and every receiver — ring, replay, fd
//     framing, instrumented/chaos wrappers, hqnet sessions — goes through
//     it by ipc.Receiver.RecvBatch: one interface call per burst.
//  2. Each burst is received directly into a leased arena block and routed
//     as (block, start, len) runs of same-shard messages: a message is
//     written once by RecvBatch and never copied again.
//  3. Run boundaries are detected by PID change (Verifier.nextRun), so the
//     shard hash is paid once per run, not once per message; a single-shard
//     pipeline routes a whole burst with no per-message work at all.
type pipeline struct {
	v         *Verifier
	batchSize int
	queues    []chan batchItem
	arena     *arena
	workers   sync.WaitGroup
}

// batchItem is one unit of shard work: a run of same-shard messages, named
// by index triplet into a shared arena block, plus the flush counter of the
// source that enqueued it. The counter is decremented only after the batch
// has been *delivered* to the verifier, which is what lets a per-source
// waiter distinguish "handed to the workers" from "verified". flush is nil
// when the caller does not track per-source delivery (the single-source
// Pump, which flushes via stop instead).
type batchItem struct {
	blk   *arenaBlock
	start uint32
	n     uint32
	flush *sync.WaitGroup
}

// newPipeline starts the per-shard workers. Callers must invoke stop exactly
// once, after every drain loop feeding the pipeline has returned.
func (v *Verifier) newPipeline() *pipeline {
	depth := v.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	nshards := len(v.shards)
	p := &pipeline{
		v:         v,
		batchSize: DefaultBatchSize,
		queues:    make([]chan batchItem, nshards),
		arena:     newArena(),
	}
	for i := range p.queues {
		p.queues[i] = make(chan batchItem, depth)
		p.workers.Add(1)
		go func(si int, q chan batchItem) {
			defer p.workers.Done()
			for item := range q {
				// Interleaving point: the run is dequeued but not yet
				// delivered — the window a lifecycle event (exit, kill,
				// poison) can slip into. Per batch, not per message.
				dsched.Yield(dsched.PointShardDeliver, item.blk.msgs[item.start].PID)
				// safeDeliver contains a delivery-machinery panic to this
				// shard (poisoning it) so the worker keeps consuming its
				// queue: flush counters still drop, block references still
				// release, and producers never wedge on a full queue with a
				// dead consumer. (A panic inside a *policy* never reaches
				// here — deliverSegment converts it into a kill of the
				// offending process and resumes the batch.) The
				// poisoned/degraded state is checked once per delivered
				// batch inside deliverShardBatch, never per message.
				v.safeDeliver(si, item.blk.msgs[item.start:item.start+item.n])
				if item.flush != nil {
					// Deliveries (including any gate.Kill the batch
					// triggered) are complete before the source's flush
					// counter drops.
					item.flush.Done()
				}
				p.arena.release(item.blk)
			}
		}(i, p.queues[i])
	}
	return p
}

// drainLoop consumes messages from r until the channel closes or fails. It
// is the per-source half of the pump and the receive half of the hot path:
// each concurrent source runs drainLoop in its own goroutine with its own
// arena lease, RecvBatch-ing bursts directly into the leased block and
// routing each burst as same-shard runs, all feeding the same shard workers.
// Messages for one process always arrive over one channel and always land in
// that process's shard queue in receive order, so per-process ordering (and
// CheckSeq) is preserved under any number of concurrent sources.
//
// Transient receive failures (ipc.IsTransient) are retried with exponential
// backoff up to a bound; everything else — and a transient fault that never
// clears — is terminal: the source is treated as failed, the process the
// receiver attributes the error to (if any) is killed, and only this
// source's drain stops. Messages received alongside an error were already
// routed, so no retry re-reads or drops them.
//
// flush, when non-nil, counts this source's outstanding batches: incremented
// per enqueue here, decremented by the shard worker after delivery. When
// drainLoop has returned AND flush has drained to zero, every message r
// produced has been evaluated by the verifier.
func drainLoop(p *pipeline, r ipc.Receiver, flush *sync.WaitGroup) {
	v := p.v
	tm := v.tm
	maxRetries := v.MaxRecvRetries
	if maxRetries <= 0 {
		maxRetries = DefaultMaxRecvRetries
	}
	retries := 0
	blk := p.arena.lease()
	w := 0
	defer func() { p.arena.release(blk) }() // the writer lease
	for {
		if w+p.batchSize > blockSlots {
			// Block exhausted: drop the writer lease and fill a fresh one.
			// In-flight runs keep their references; the block recycles when
			// the last of them delivers.
			p.arena.release(blk)
			blk = p.arena.lease()
			w = 0
		}
		var recvStart time.Time
		if tm != nil {
			recvStart = time.Now()
		}
		n, ok, err := r.RecvBatch(blk.msgs[w : w+p.batchSize])
		if tm != nil {
			// Time spent inside RecvBatch is (almost entirely) time the
			// drain loop stalled waiting for the producer.
			tm.pumpStall.Observe(uint64(time.Since(recvStart)))
		}
		if n > 0 {
			p.route(blk, w, n, flush)
			w += n
		}
		if err != nil {
			if ipc.IsTransient(err) && retries < maxRetries {
				retries++
				if tm != nil {
					tm.retries.Inc()
				}
				time.Sleep(ipc.RetryBackoff(retries))
				continue
			}
			if tm != nil {
				tm.recvErrs.Inc()
			}
			v.killAttributed(err)
			return
		}
		retries = 0
		if !ok {
			return
		}
	}
}

// route cuts blk.msgs[base:base+n] into runs of same-shard messages
// (Verifier.nextRun) and enqueues each onto its shard queue, preserving order.
// Work is proportional to the number of runs, not the shard count. Production
// sources are per-process channels, so their bursts are single runs; only
// synthetic multi-PID streams split, at scheduler-quantum granularity.
func (p *pipeline) route(blk *arenaBlock, base, n int, flush *sync.WaitGroup) {
	ms := blk.msgs[base : base+n]
	for start := 0; start < n; {
		si, end := p.v.nextRun(ms, start)
		p.enqueue(si, blk, base+start, end-start, flush)
		start = end
	}
}

// enqueue hands one run to shard si's worker, taking the block and flush
// references that the worker releases after delivery.
func (p *pipeline) enqueue(si int, blk *arenaBlock, start, n int, flush *sync.WaitGroup) {
	// Interleaving point: the run is routed but not yet queued. The drain
	// goroutine holds no locks here. Per run, not per message.
	dsched.Yield(dsched.PointPumpHandoff, blk.msgs[start].PID)
	if tm := p.v.tm; tm != nil {
		tm.queueDepth.ObserveAt(si, uint64(len(p.queues[si])))
	}
	if flush != nil {
		flush.Add(1)
	}
	blk.ref()
	p.queues[si] <- batchItem{blk: blk, start: uint32(start), n: uint32(n), flush: flush}
}

// stop closes the shard queues and waits for the workers to deliver
// everything still enqueued. No drain may be running or started afterwards.
func (p *pipeline) stop() {
	for _, q := range p.queues {
		close(q)
	}
	p.workers.Wait()
}

// ErrPumpClosed is returned by PumpSet.Attach after Close has been called.
var ErrPumpClosed = errors.New("verifier: pump set closed")

// PumpSet drains a dynamic set of receivers through one shared sharded
// pipeline — the verifier-side heart of the multi-process supervisor: one
// monitored program per attached channel, all validating through the same
// shard workers. Sources register as processes launch (Attach) and
// deregister themselves once their channel has closed and their in-flight
// batches have been delivered; Close waits for every attached source to
// finish and then stops the shard workers, so no received message is ever
// dropped by shutdown.
type PumpSet struct {
	v *Verifier
	p *pipeline

	mu     sync.Mutex
	active int
	closed bool
	drains sync.WaitGroup
	stop   sync.Once
}

// NewPumpSet creates an empty pump set over v's shards. The per-shard
// workers start immediately and idle until sources attach.
func (v *Verifier) NewPumpSet() *PumpSet {
	return &PumpSet{v: v, p: v.newPipeline()}
}

// Attach registers r as a new message source and starts draining it in a
// dedicated goroutine. The returned channel is closed once r has been fully
// drained (its channel closed or failed) AND every one of its messages has
// been delivered by the shard workers — including any kill the verifier
// issued for them — so a caller that waits on done before reading per-PID
// verifier state (or tearing the process down) observes all of the source's
// deliveries, with no Close required first.
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
		var flush sync.WaitGroup
		drainLoop(ps.p, r, &flush)
		// The source is fully read; now wait until the shard workers have
		// delivered every batch it enqueued, so closing done publishes
		// "this source's messages are verified", not merely "handed off".
		flush.Wait()
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

// QueueDepths reports each shard queue's current occupancy in batches — the
// live backpressure signal behind the herqules_shard_queue_depth gauges (the
// series ROADMAP earmarks for hqd rebalancing). Channel len is safe to read
// concurrently; the values are instantaneous, not a high-water mark.
func (ps *PumpSet) QueueDepths() []int {
	out := make([]int, len(ps.p.queues))
	for i, q := range ps.p.queues {
		out[i] = len(q)
	}
	return out
}

// QueueCap reports the per-shard queue bound in batches (QueueDepth or its
// default), the denominator for queue occupancy.
func (ps *PumpSet) QueueCap() int {
	if len(ps.p.queues) == 0 {
		return 0
	}
	return cap(ps.p.queues[0])
}

// Close waits for every attached source to finish draining, then stops the
// shard workers after they have delivered all enqueued batches. Attach fails
// with ErrPumpClosed from the moment Close is entered; Close itself is
// idempotent. Sources still attached block Close until their channels close,
// so the owner must close (or have closed) every monitored program's channel
// first — the supervisor's Shutdown ordering.
func (ps *PumpSet) Close() {
	ps.mu.Lock()
	ps.closed = true
	ps.mu.Unlock()
	ps.drains.Wait()
	// sync.Once blocks concurrent callers until the first stop returns, so
	// every Close observes a fully flushed pipeline.
	ps.stop.Do(ps.p.stop)
}
