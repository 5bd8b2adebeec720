package ipc

import (
	"sync/atomic"
)

// SharedRing is a single-producer single-consumer circular buffer modelling
// the "Shared Memory" row of Table 2: the fastest software primitive (a send
// is one memory write), but *not* append-only — the writer retains access to
// every unread slot and can rewrite or erase messages before the verifier
// reads them, which is why raw shared memory is unsuitable for HerQules.
//
// A SharedRing is a handle onto the ring's state. NewSharedRing returns the
// raw one; SealSender returns a second, sealed handle onto the same state,
// so both endpoints run the one Send body and neither pays a wrapper's call.
type SharedRing struct {
	*ringState
	sealed bool // sends through this handle are sealed (SealSender)
}

type ringState struct {
	slots []Message
	mask  uint64

	head   atomic.Uint64 // next slot to publish
	tail   atomic.Uint64 // next slot to read
	closed atomic.Bool
	open   uint32 // sealed messages written past head, not yet published

	seq uint64 // sender-side message counter (forgeable: sender-managed)

	// The fields above fill one 64-byte line. The waiters get a second line
	// of their own: a cursor store is followed by a load of the peer's
	// parked flag, and a line written only when a side parks stays shared
	// in both caches, so that load hits. The sealing key, read once a group,
	// fills the line: the struct is 128 bytes, a size class whose objects
	// start on a line boundary.
	recv waiter // the drain, parked on an empty ring
	send waiter // the producer, parked on a full ring
	key  MacKey // the sealed handle's key
}

var (
	_ Sender   = (*SharedRing)(nil)
	_ Receiver = (*SharedRing)(nil)
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
	r := &SharedRing{ringState: &ringState{slots: make([]Message, n), mask: n - 1, recv: newWaiter(), send: newWaiter()}}
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
//
// Send is the ring's one producer body, for the raw handle and the sealed
// one. It numbers m and writes it into the slot after the open group. On
// the raw handle m goes out unsealed and is published at once, with the
// group ahead of it. On the sealed handle it joins the group, which is
// published at its eighth message and, fenced, at a System-Call message,
// before the producer waits on a full ring and at Close.
func (r *SharedRing) Send(m Message) error {
	if r.closed.Load() {
		return ErrClosed
	}
	head := r.head.Load()
	open := uint64(r.open)
	if head+open-r.tail.Load() >= uint64(len(r.slots)) {
		if !r.awaitRoom(head, open) {
			return ErrClosed
		}
		head, open = head+open, 0
	}
	r.seq++
	m.Seq = r.seq
	r.slots[(head+open)&r.mask] = m
	g := open
	if r.sealed {
		r.open++
		if open < 7 && m.Op != OpSyscall {
			return nil
		}
		g++
	}
	r.publish(head, open+1, g, m.Op == OpSyscall)
	return nil
}

// awaitRoom publishes the open group, fenced, and waits until the slot
// after it is free. It reports false if the ring was closed first.
func (r *SharedRing) awaitRoom(head, open uint64) bool {
	r.publish(head, open, open, true)
	end, size := head+open, uint64(len(r.slots))
	r.send.wait(func() bool { return end-r.tail.Load() < size || r.closed.Load() })
	return !r.closed.Load()
}

// publish hands the n messages written past head to the drain: it seals
// the first g of them, the open group, stores head past all n (fenced or
// with Publish) and wakes a parked drain. Between the caller's slot write
// and the head store it reads nothing from the cursors' line, which the
// drain's tail store may have taken. With nothing written a fenced publish
// still stores head: before a full-ring wait that store is what keeps the
// drain from sleeping on a stale head.
func (r *SharedRing) publish(head, n, g uint64, fenced bool) {
	if g > 0 {
		r.seal(head, g)
	}
	if fenced {
		r.head.Store(head + n)
	} else {
		Publish(&r.head, head+n)
	}
	r.recv.wakeUp()
}

// seal tags the open group, the g messages from head on, with one MacSeal8
// pass (a group of one with MacSeal), and closes it. Only sealed sends open
// a group, so a ring never sent on sealed never writes open (see Close).
func (r *SharedRing) seal(head, g uint64) {
	r.open = 0
	if g == 1 {
		m := &r.slots[head&r.mask]
		m.Mac = MacSeal(r.key, *m, m.Seq)
		return
	}
	var tags [8]uint64
	if i := head & r.mask; i+8 <= uint64(len(r.slots)) {
		// Lanes past the group hash stale slots; their tags are dropped.
		tags = MacSeal8(r.key, (*[8]Message)(r.slots[i:i+8]))
	} else {
		// The group wraps the ring's end: seal it from a copy.
		var w [8]Message
		for k := uint64(0); k < g; k++ {
			w[k] = r.slots[(head+k)&r.mask]
		}
		tags = MacSeal8(r.key, &w)
	}
	for k := uint64(0); k < g; k++ {
		r.slots[(head+k)&r.mask].Mac = tags[k]
	}
}

// Close publishes the open group, marks the ring closed and wakes both
// sides: a parked producer gets ErrClosed, and the drain empties the
// remaining slots. The flag's store is sequentially consistent, so it is a
// fenced point: the drain sees it, or Close sees the drain parked, and
// either way the drain then reads the last published head. Behind a sealed
// producer, Close runs on the producer's goroutine or after it. A ring that
// is never sent on sealed has no group open, so its Close writes nothing but
// the flag and may run beside the producer, even one parked on a full ring.
func (r *SharedRing) Close() error {
	if g := uint64(r.open); g > 0 {
		r.publish(r.head.Load(), g, g, false)
	}
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
