package ipc

import (
	"sync/atomic"
)

// SharedRing is a single-producer single-consumer circular buffer modelling
// the "Shared Memory" row of Table 2: the fastest software primitive (a send
// is one memory write), but *not* append-only — the writer retains access to
// every unread slot and can rewrite or erase messages before the verifier
// reads them. The Corrupt method exposes exactly that weakness so tests and
// examples can demonstrate why raw shared memory is unsuitable for HerQules.
type SharedRing struct {
	slots []Message
	mask  uint64

	head   atomic.Uint64 // next slot to write
	tail   atomic.Uint64 // next slot to read
	closed atomic.Bool

	seq uint64 // sender-side message counter (forgeable: sender-managed)
}

var (
	_ Sender   = (*SharedRing)(nil)
	_ Receiver = (*SharedRing)(nil)
	_ Pender   = (*SharedRing)(nil)
)

// Shared-ring capacity bounds: requests are clamped into [MinRingCapacity,
// MaxRingCapacity] before rounding up to a power of two. The clamp is
// correctness, not just hygiene: a negative capacity converted to uint64 is
// huge, and the round-up loop would shift n to zero and spin forever.
const (
	MinRingCapacity = 8
	MaxRingCapacity = 1 << 20
)

// NewSharedRing creates a shared-memory ring with capacity clamped to
// [MinRingCapacity, MaxRingCapacity] and rounded up to a power of two, and
// returns it as a Channel: the same object serves as both endpoints, exactly
// like a memory region mapped into two processes.
func NewSharedRing(capacity int) *Channel {
	if capacity < MinRingCapacity {
		capacity = MinRingCapacity
	}
	if capacity > MaxRingCapacity {
		capacity = MaxRingCapacity
	}
	n := uint64(MinRingCapacity)
	for n < uint64(capacity) {
		n <<= 1
	}
	r := &SharedRing{slots: make([]Message, n), mask: n - 1}
	return &Channel{Sender: r, Receiver: r, Props: Properties{
		Name:            "Shared Memory",
		AppendOnly:      false,
		AsyncValidation: true,
		PrimaryCost:     "memory write",
		SendNanos:       12,
	}}
}

// Send writes m into the next free slot. A full ring applies backpressure
// with the iteration-budgeted pollBackoff: the producer yields cooperatively
// while the verifier is expected to drain imminently, then sleeps in
// pollSleepQuantum steps — a stalled verifier costs the producer scheduler
// wakeups, not a pinned core.
func (r *SharedRing) Send(m Message) error {
	if r.closed.Load() {
		return ErrClosed
	}
	head := r.head.Load()
	var bo pollBackoff
	for head-r.tail.Load() >= uint64(len(r.slots)) {
		if r.closed.Load() {
			return ErrClosed
		}
		bo.pause()
	}
	r.seq++
	m.Seq = r.seq
	r.slots[head&r.mask] = m
	r.head.Store(head + 1)
	return nil
}

// Close marks the ring closed; the receiver drains remaining slots.
func (r *SharedRing) Close() error {
	r.closed.Store(true)
	return nil
}

// RecvBatch copies every currently pending message (up to len(buf)) out of
// the ring in one pass, publishing the new read cursor with a single atomic
// store: two atomic loads and one store per burst, not per message, which is
// what lets a drain loop keep up with a writer whose send is a single memory
// write. The burst is copied with at most two bulk copies (the wrap-around
// split) instead of a per-slot loop, and the empty-ring wait uses the
// budgeted backoff shared with Send, so a consumer ahead of a stalled
// producer stops burning its core after the spin budget.
func (r *SharedRing) RecvBatch(buf []Message) (int, bool, error) {
	if len(buf) == 0 {
		return 0, true, nil
	}
	var bo pollBackoff
	for {
		tail := r.tail.Load()
		head := r.head.Load()
		if head != tail {
			n := int(head - tail)
			if n > len(buf) {
				n = len(buf)
			}
			i := int(tail & r.mask)
			c := copy(buf[:n], r.slots[i:])
			if c < n {
				copy(buf[c:n], r.slots)
			}
			r.tail.Store(tail + uint64(n))
			return n, true, nil
		}
		if r.closed.Load() && r.tail.Load() == r.head.Load() {
			return 0, false, nil
		}
		bo.pause()
	}
}

// Pending reports the number of sent-but-unread messages.
func (r *SharedRing) Pending() int {
	return int(r.head.Load() - r.tail.Load())
}

// Corrupt overwrites the i-th unread message (0 = oldest), simulating a
// compromised writer erasing evidence before the verifier reads it. It
// returns false when no such unread slot exists. A raw shared-memory mapping
// gives the monitored process precisely this power, which is why Table 2
// marks shared memory as lacking the append-only property.
func (r *SharedRing) Corrupt(i int, m Message) bool {
	tail := r.tail.Load()
	if uint64(i) >= r.head.Load()-tail {
		return false
	}
	slot := (tail + uint64(i)) & r.mask
	m.Seq = r.slots[slot].Seq // preserve the counter: corruption is invisible
	r.slots[slot] = m
	return true
}
