package chaos

import (
	"fmt"
	"time"

	"herqules/internal/ipc"
)

// heldMsg is a message the reorder stage is holding back. releaseAt is the
// source index after which it re-enters the stream.
type heldMsg struct {
	m         ipc.Message
	releaseAt uint64
}

// faultReceiver applies consumer-side faults — drop, duplication, bounded
// reorder, payload corruption, stall-then-burst, and transient receive
// errors — around a wrapped receiver. All integrity-violating faults live
// here rather than in the sender because the backends assign sequence
// numbers inside Send: only a message that already carries its Seq can be
// dropped, replayed, or corrupted in a way the verifier's CheckSeq and
// policy checks are able to (and must) detect.
//
// Like every receiver in the ipc package, a faultReceiver supports one
// concurrent consumer.
type faultReceiver struct {
	inj    *Injector
	r      ipc.Receiver
	stream uint64

	idx     uint64 // source messages consumed from r
	calls   uint64 // RecvBatch calls made by the consumer
	pending []ipc.Message
	held    []heldMsg
	buf     []ipc.Message
	srcDone bool
	srcErr  error // terminal error from r, delivered once after pending drains
}

// Receiver wraps r with the injector's consumer-side faults.
func (inj *Injector) Receiver(r ipc.Receiver) ipc.Receiver {
	return &faultReceiver{inj: inj, r: r, stream: inj.streams.Add(1)}
}

// exhausted reports whether the faulted stream has nothing left to deliver.
func (fr *faultReceiver) exhausted() bool {
	return fr.srcDone && len(fr.pending) == 0 && len(fr.held) == 0
}

// RecvBatch implements ipc.Receiver over the faulted stream.
func (fr *faultReceiver) RecvBatch(out []ipc.Message) (int, bool, error) {
	if len(out) == 0 {
		return 0, true, nil
	}
	inj := fr.inj

	// Call-scoped faults fire before any receive work. They are decided
	// from the call counter, not the message index: how many calls a
	// consumer makes is a timing artifact, which is also why these
	// decisions stay out of the schedule hash.
	if !fr.exhausted() {
		c := fr.calls
		fr.calls++
		if hit(inj.draw(FaultRecvErr, fr.stream, c), inj.cfg.recvErr) {
			inj.count(FaultRecvErr)
			return 0, true, ipc.Transient(fmt.Errorf("%w: recv call %d refused", errInjected, c))
		}
		if hit(inj.draw(FaultStall, fr.stream, c), inj.cfg.stall) {
			// Stall-then-burst: go silent while the producer keeps writing;
			// the backlog then lands on the verifier as one burst.
			inj.count(FaultStall)
			time.Sleep(inj.cfg.stallFor)
		}
	}

	for len(fr.pending) == 0 && !fr.srcDone {
		fr.pull(len(out))
	}
	n := copy(out, fr.pending)
	fr.pending = fr.pending[:copy(fr.pending, fr.pending[n:])]
	if n == 0 && fr.srcDone {
		err := fr.srcErr
		fr.srcErr = nil // deliver a terminal source error exactly once
		return 0, false, err
	}
	return n, true, nil
}

// pull reads one burst from the source and runs every message through the
// per-message fault stages, appending survivors (and duplicates, and
// released held messages) to pending.
func (fr *faultReceiver) pull(want int) {
	if cap(fr.buf) == 0 {
		if want < 64 {
			want = 64
		}
		fr.buf = make([]ipc.Message, want)
	}
	n, ok, err := fr.r.RecvBatch(fr.buf)
	inj := fr.inj
	cfg := &inj.cfg
	for _, m := range fr.buf[:n] {
		i := fr.idx
		fr.idx++
		// One fault per message, first match wins; the decision (including
		// "none") is part of the deterministic schedule.
		switch {
		case hit(inj.draw(FaultDrop, fr.stream, i), cfg.drop):
			inj.count(FaultDrop)
			inj.recordDecision(fr.stream, i, FaultDrop)
		case hit(inj.draw(FaultDuplicate, fr.stream, i), cfg.duplicate):
			inj.count(FaultDuplicate)
			inj.recordDecision(fr.stream, i, FaultDuplicate)
			fr.pending = append(fr.pending, m, m)
		case hit(inj.draw(FaultCorrupt, fr.stream, i), cfg.corrupt):
			inj.count(FaultCorrupt)
			inj.recordDecision(fr.stream, i, FaultCorrupt)
			fr.pending = append(fr.pending, corrupt(m, inj.draw(FaultNone, fr.stream, i)))
		case hit(inj.draw(FaultReorder, fr.stream, i), cfg.reorder):
			inj.count(FaultReorder)
			inj.recordDecision(fr.stream, i, FaultReorder)
			release := i + 1 + inj.draw(FaultNone, fr.stream, i)%uint64(cfg.window)
			fr.held = append(fr.held, heldMsg{m: m, releaseAt: release})
		default:
			inj.recordDecision(fr.stream, i, FaultNone)
			fr.pending = append(fr.pending, m)
		}
		fr.release(fr.idx)
	}
	if err != nil {
		// Messages alongside the error were processed above (the
		// Receiver contract says they are valid); the error itself is
		// terminal for the source, so flush held messages and surface it
		// once pending drains.
		fr.srcErr = err
		fr.srcDone = true
		fr.flushHeld()
		return
	}
	if !ok {
		fr.srcDone = true
		fr.flushHeld()
	}
}

// release appends every held message whose window has elapsed.
func (fr *faultReceiver) release(now uint64) {
	kept := fr.held[:0]
	for _, h := range fr.held {
		if h.releaseAt <= now {
			fr.pending = append(fr.pending, h.m)
		} else {
			kept = append(kept, h)
		}
	}
	fr.held = kept
}

// flushHeld releases everything still held at stream end: a reordered
// message is delayed, never silently dropped (that would be FaultDrop with
// extra steps, and would double-count in Counts).
func (fr *faultReceiver) flushHeld() {
	for _, h := range fr.held {
		fr.pending = append(fr.pending, h.m)
	}
	fr.held = fr.held[:0]
}

// corrupt flips one bit — chosen by r — in the message payload. The Seq
// field is one of the corruptible words: a flipped sequence number is the
// corruption CheckSeq is guaranteed to see, while a flipped argument
// surfaces (if at all) as a policy-check failure.
func corrupt(m ipc.Message, r uint64) ipc.Message {
	bit := uint64(1) << ((r >> 2) % 64)
	switch r % 4 {
	case 0:
		m.Arg1 ^= bit
	case 1:
		m.Arg2 ^= bit
	case 2:
		m.Arg3 ^= bit
	default:
		m.Seq ^= bit
	}
	return m
}

// Pending implements ipc.Pender: the backend's queue plus everything the
// injector is holding (pending delivery or reorder-held).
func (fr *faultReceiver) Pending() int {
	n, _ := ipc.PendingOf(fr.r)
	return n + len(fr.pending) + len(fr.held)
}

var (
	_ ipc.Receiver = (*faultReceiver)(nil)
	_ ipc.Pender   = (*faultReceiver)(nil)
)
