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

	// The fields above fill one 64-byte line. The waiters get a second line
	// of their own: a cursor store is followed by a load of the peer's
	// parked flag, and a line written only when a side parks stays shared
	// in both caches, so that load hits. The pad makes the struct 128 bytes,
	// a size class whose objects start on a line boundary.
	recv waiter // the drain, parked on an empty ring
	send waiter // the producer, parked on a full ring
	_    [128 - 64 - 2*16]byte
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
	r := &SharedRing{slots: make([]Message, n), mask: n - 1, recv: newWaiter(), send: newWaiter()}
	return &Channel{Sender: r, Receiver: r, Props: Properties{
		Name:            "Shared Memory",
		AppendOnly:      false,
		AsyncValidation: true,
		PrimaryCost:     "memory write",
		SendNanos:       12,
	}}
}

// Send writes m into the next free slot, publishes it with one store to
// head and wakes a parked drain. The program meets its verifier only at a
// system call (§2.2), so the store is fenced only where the producer can
// stop sending and wait on the drain: a System-Call message, whose gate
// waits for the drain to reach it, and the moment before the producer waits
// on a full ring, where it stores head again so that the drain cannot sleep
// on a stale head while the producer sleeps on a full ring (Close is the
// third fenced point). Elsewhere the store is Publish, one MOVQ on amd64: a
// send costs a memory write and a load of the drain's parked flag, as Table
// 2 prices it, and a drain that parks at that instant is woken by a later
// Send or fenced point (see waiter). A full ring applies backpressure: the
// producer yields spinIterBudget times while the drain catches up, then
// parks until the drain's next tail store (or Close) wakes it, so a stalled
// verifier costs the producer no CPU.
func (r *SharedRing) Send(m Message) error {
	if r.closed.Load() {
		return ErrClosed
	}
	head := r.head.Load()
	size := uint64(len(r.slots))
	if head-r.tail.Load() >= size {
		r.head.Store(head)
		r.recv.wakeUp()
		r.send.wait(func() bool { return head-r.tail.Load() < size || r.closed.Load() })
		if r.closed.Load() {
			return ErrClosed
		}
	}
	r.seq++
	m.Seq = r.seq
	r.slots[head&r.mask] = m
	if m.Op == OpSyscall {
		r.head.Store(head + 1)
	} else {
		Publish(&r.head, head+1)
	}
	r.recv.wakeUp()
	return nil
}

// Close marks the ring closed and wakes both sides: a parked producer gets
// ErrClosed, and the drain empties the remaining slots. The flag's store is
// sequentially consistent, so it is a fenced point: the drain sees it, or
// Close sees the drain parked, and either way the drain then reads the last
// published head.
func (r *SharedRing) Close() error {
	r.closed.Store(true)
	r.recv.wakeUp()
	r.send.wakeUp()
	return nil
}

// RecvBatch copies every currently pending message (up to len(buf)) out of
// the ring in one pass, publishing the new read cursor with a single atomic
// store: two atomic loads and one store per burst, not per message, which is
// what lets a drain loop keep up with a writer whose send is a single memory
// write. The burst is copied with at most two bulk copies (the wrap-around
// split) instead of a per-slot loop. On an empty ring the drain yields
// spinIterBudget times and then parks until the producer's next head store
// (or Close) wakes it; after its own tail store it wakes a producer parked
// on a full ring.
func (r *SharedRing) RecvBatch(buf []Message) (int, bool, error) {
	if len(buf) == 0 {
		return 0, true, nil
	}
	tail := r.tail.Load()
	head := r.head.Load()
	if head == tail {
		r.recv.wait(func() bool { return r.head.Load() != tail || r.closed.Load() })
		if head = r.head.Load(); head == tail {
			return 0, false, nil // closed and drained
		}
	}
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
	r.send.wakeUp()
	return n, true, nil
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
