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
	_    [128 - 64 - 2*24]byte
}

var (
	_ Sender   = (*SharedRing)(nil)
	_ Receiver = (*SharedRing)(nil)
	_ Pender   = (*SharedRing)(nil)
	_ Sender   = (*sealedRing)(nil)
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

// sealedRing is the view SealSender returns for a bare SharedRing: the
// ring's one producer, sealing eight messages at a time. Send numbers a
// message and writes it into the ring's next free slot without moving head,
// so the open group sits in slots the drain cannot read yet. publish tags the
// group with one MacSeal8 pass and hands it over with one head store: at the
// eighth message (Publish), and fenced, as SharedRing.Send fences, at a
// System-Call message, before the producer waits on a full ring and at
// Close. The raw ring stays unsealed; a raw Send while a group is open would
// overwrite it, so the view, once made, is the ring's only producer.
type sealedRing struct {
	r    *SharedRing
	key  MacKey
	open uint64 // messages written past head, not yet published
}

func (s *sealedRing) Send(m Message) error {
	r := s.r
	if r.closed.Load() {
		return ErrClosed
	}
	end := r.head.Load() + s.open
	size := uint64(len(r.slots))
	if end-r.tail.Load() >= size {
		s.publish(true)
		r.send.wait(func() bool { return end-r.tail.Load() < size || r.closed.Load() })
		if r.closed.Load() {
			return ErrClosed
		}
	}
	r.seq++
	m.Seq = r.seq
	r.slots[end&r.mask] = m
	s.open++
	if m.Op == OpSyscall {
		s.publish(true)
	} else if s.open == 8 {
		s.publish(false)
	}
	return nil
}

// publish seals the open group, stores head past it (fenced or with
// Publish) and wakes a parked drain. With no group open a fenced publish
// still stores head: before a full-ring wait that store is what keeps the
// drain from sleeping on a stale head.
func (s *sealedRing) publish(fenced bool) {
	r := s.r
	head := r.head.Load()
	n := s.open
	if n == 1 {
		m := &r.slots[head&r.mask]
		m.Mac = MacSeal(s.key, *m, m.Seq)
	} else if n > 1 {
		var tags [8]uint64
		if i := head & r.mask; i+8 <= uint64(len(r.slots)) {
			// Lanes past the group hash stale slots; their tags are dropped.
			tags = MacSeal8(s.key, (*[8]Message)(r.slots[i:i+8]))
		} else {
			// The group wraps the ring's end: seal it from a copy.
			var g [8]Message
			for k := uint64(0); k < n; k++ {
				g[k] = r.slots[(head+k)&r.mask]
			}
			tags = MacSeal8(s.key, &g)
		}
		for k := uint64(0); k < n; k++ {
			r.slots[(head+k)&r.mask].Mac = tags[k]
		}
	}
	s.open = 0
	if fenced {
		r.head.Store(head + n)
	} else {
		Publish(&r.head, head+n)
	}
	r.recv.wakeUp()
}

// Close publishes the open group and closes the ring.
func (s *sealedRing) Close() error {
	if s.open > 0 {
		s.publish(true)
	}
	return s.r.Close()
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
