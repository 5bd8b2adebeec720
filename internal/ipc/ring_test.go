package ipc

import (
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// waitParked returns once the side behind w has raised its parked flag, that
// is, once it has spent its spin budget; it fails the test after a deadline.
func waitParked(t *testing.T, w *waiter, side string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !w.parked.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("the %s never parked", side)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// pause stalls the calling side for longer than the spin budget, so its
// peer parks: half the time by sleeping, which frees the processor, and half
// the time by spinning, which keeps it.
func pause(rng *rand.Rand) {
	d := time.Duration(50+rng.IntN(250)) * time.Microsecond
	if rng.IntN(2) == 0 {
		time.Sleep(d)
		return
	}
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// TestSharedRingParkWakeStress: both sides stall at random for longer than
// the spin budget, so the producer parks on a full ring and the drain on an
// empty one many times over; every message still arrives once, in order,
// with its sequence number. A lost wake-up fails at the deadline instead of
// hanging the run.
func TestSharedRingParkWakeStress(t *testing.T) {
	const (
		n     = 200_000
		every = 1024 // mean messages between two pauses of one side
	)
	ch := NewSharedRing(64)
	r := ch.Sender.(*SharedRing)

	type result struct {
		got, peerParked int
		err             string
	}
	recvDone := make(chan result, 1)
	go func() {
		rng := rand.New(rand.NewPCG(2, 2))
		buf := make([]Message, 48)
		var res result
		for {
			k, ok, err := r.RecvBatch(buf)
			if err != nil || !ok {
				if err != nil {
					res.err = err.Error()
				}
				recvDone <- res
				return
			}
			for _, m := range buf[:k] {
				if m.Arg1 != uint64(res.got) || m.Seq != uint64(res.got)+1 {
					res.err = "out of order"
					recvDone <- res
					return
				}
				res.got++
			}
			if rng.IntN(every/len(buf)) == 0 {
				pause(rng)
				if r.send.parked.Load() {
					res.peerParked++
				}
			}
		}
	}()
	sendDone := make(chan int, 1)
	go func() {
		rng := rand.New(rand.NewPCG(1, 1))
		peerParked := 0
		for i := 0; i < n; i++ {
			if err := r.Send(Message{Op: OpCounterInc, Arg1: uint64(i)}); err != nil {
				break
			}
			if rng.IntN(every) == 0 {
				pause(rng)
				if r.recv.parked.Load() {
					peerParked++
				}
			}
		}
		r.Close()
		sendDone <- peerParked
	}()

	deadline := time.After(60 * time.Second)
	var sendParks int
	select {
	case sendParks = <-sendDone:
	case <-deadline:
		t.Fatalf("producer stuck: head %d tail %d, parked send %t recv %t",
			r.head.Load(), r.tail.Load(), r.send.parked.Load(), r.recv.parked.Load())
	}
	var res result
	select {
	case res = <-recvDone:
	case <-deadline:
		t.Fatalf("drain stuck: head %d tail %d, parked send %t recv %t",
			r.head.Load(), r.tail.Load(), r.send.parked.Load(), r.recv.parked.Load())
	}
	if res.err != "" || res.got != n {
		t.Fatalf("drain: %d of %d messages, %q", res.got, n, res.err)
	}
	t.Logf("drain seen parked at %d producer pauses, producer at %d drain pauses", sendParks, res.peerParked)
	if sendParks == 0 || res.peerParked == 0 {
		t.Fatalf("a side never parked (drain %d, producer %d): the parked path went untested", sendParks, res.peerParked)
	}
}

// TestSharedRingCloseWakesParked: Close releases a drain parked on an empty
// ring (ok=false) and a producer parked on a full one (ErrClosed).
func TestSharedRingCloseWakesParked(t *testing.T) {
	t.Run("drain", func(t *testing.T) {
		r := NewSharedRing(8).Sender.(*SharedRing)
		done := make(chan bool, 1)
		go func() {
			_, ok, _ := r.RecvBatch(make([]Message, 8))
			done <- ok
		}()
		waitParked(t, &r.recv, "drain")
		r.Close()
		select {
		case ok := <-done:
			if ok {
				t.Fatal("RecvBatch on a closed, empty ring returned ok")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Close left the drain parked")
		}
	})
	t.Run("producer", func(t *testing.T) {
		r := NewSharedRing(8).Sender.(*SharedRing)
		for i := 0; i < 8; i++ {
			if err := r.Send(Message{}); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan error, 1)
		go func() { done <- r.Send(Message{}) }()
		waitParked(t, &r.send, "producer")
		r.Close()
		select {
		case err := <-done:
			if err != ErrClosed {
				t.Fatalf("Send parked on a full ring returned %v after Close, want ErrClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Close left the producer parked")
		}
	})
}

// TestSharedRingParkedRoundTripAllocatesNothing: a Send that wakes a parked
// drain, and the drain's parked RecvBatch, allocate nothing.
func TestSharedRingParkedRoundTripAllocatesNothing(t *testing.T) {
	r := NewSharedRing(8).Sender.(*SharedRing)
	got := make(chan bool)
	go func() {
		buf := make([]Message, 8)
		for {
			_, ok, _ := r.RecvBatch(buf)
			got <- ok
			if !ok {
				return
			}
		}
	}()
	allocs := testing.AllocsPerRun(50, func() {
		for !r.recv.parked.Load() {
			runtime.Gosched()
		}
		if err := r.Send(Message{}); err != nil {
			t.Error(err)
		}
		<-got
	})
	r.Close()
	<-got
	if allocs != 0 {
		t.Fatalf("%v allocations per parked round trip, want 0", allocs)
	}
}

// TestSharedRingLayout: the cursors and the open-group count share the
// first cache line of the ring's state and the waiters the second, and the
// state is exactly two lines.
func TestSharedRingLayout(t *testing.T) {
	var r ringState
	if s := unsafe.Sizeof(r); s != 128 {
		t.Fatalf("the ring's state is %d bytes, want 128", s)
	}
	if o := unsafe.Offsetof(r.seq); o >= 64 {
		t.Fatalf("seq at offset %d, want it on the first line", o)
	}
	if o := unsafe.Offsetof(r.open); o >= 64 {
		t.Fatalf("open at offset %d, want it on the first line", o)
	}
	if o := unsafe.Offsetof(r.recv); o != 64 {
		t.Fatalf("recv waiter at offset %d, want 64", o)
	}
}

// orderedDrain empties r on a goroutine of its own, counting what it has
// received and checking that the ring's sequence numbers arrive gap-free,
// once each and in order.
type orderedDrain struct {
	got  atomic.Int64
	bad  atomic.Bool
	done chan struct{}
}

func startOrderedDrain(r *SharedRing) *orderedDrain {
	d := &orderedDrain{done: make(chan struct{})}
	go func() {
		defer close(d.done)
		buf := make([]Message, 8)
		var got int64
		for {
			n, ok, _ := r.RecvBatch(buf)
			if !ok {
				return
			}
			for _, m := range buf[:n] {
				got++
				if m.Seq != uint64(got) {
					d.bad.Store(true)
				}
			}
			d.got.Store(got)
		}
	}()
	return d
}

// awaitRing yields until cond holds and fails the test after a deadline, so
// a lost wake-up fails instead of hanging the run.
func awaitRing(t *testing.T, r *SharedRing, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: gave up after 5 s with head %d tail %d, parked send %t recv %t",
				what, r.head.Load(), r.tail.Load(), r.send.parked.Load(), r.recv.parked.Load())
		}
		runtime.Gosched()
	}
}

// spinFor keeps the processor for d.
func spinFor(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// TestSharedRingFencedPointsWakeParkedDrain: a producer that stops sending
// at a fenced point and waits on the drain is never left waiting on a drain
// that parked on a stale head. Every episode starts with the drain parked.
// In the syscall arm the producer sends k messages and then the System-Call
// message and waits for the drain to return it; in the full arm it sends
// past the capacity of a ring of 8, so it waits on the drain for room, and
// then the System-Call message, and waits for the drain to return it; in
// the close arm it sends k messages and closes the ring, and the drain must
// return all k and then ok=false. In the syscall arm, and in every other
// episode of the close arm, the producer waits until the woken drain has
// returned the k messages and then pauses for a time drawn across the
// drain's spin budget, so the last send or the Close often lands as the
// drain parks again: the instant a plain publish can miss.
func TestSharedRingFencedPointsWakeParkedDrain(t *testing.T) {
	const episodes = 3334 // per arm, 10 002 in all
	rng := rand.New(rand.NewPCG(37, 37))
	counter := Message{Op: OpCounterInc}

	// respin estimates how long a woken drain yields before it parks again,
	// from the episodes so far; the pause before the last send is drawn
	// from [0, 1.5 respin).
	respin := 20 * time.Microsecond
	pauseBeforeLast := func() {
		spinFor(time.Duration(rng.Int64N(int64(respin) * 3 / 2)))
	}
	sendCounters := func(t *testing.T, r *SharedRing, k int64) {
		for i := int64(0); i < k; i++ {
			if err := r.Send(counter); err != nil {
				t.Fatal(err)
			}
		}
	}
	// settle waits until the drain has returned n messages in all, or has
	// parked short of them: a plain send may miss a drain that parks at
	// that instant (see waiter), and then the fenced point that follows
	// must wake it, which the arm's last wait checks.
	settle := func(t *testing.T, r *SharedRing, d *orderedDrain, n int64) {
		awaitRing(t, r, "messages not returned", func() bool { return d.got.Load() == n || r.recv.parked.Load() })
	}
	awaitParked := func(t *testing.T, r *SharedRing, since time.Time) {
		awaitRing(t, r, "drain never parked", r.recv.parked.Load)
		respin = (7*respin + time.Since(since)) / 8
	}

	t.Run("syscall", func(t *testing.T) {
		r := NewSharedRing(64).Sender.(*SharedRing)
		d := startOrderedDrain(r)
		defer func() { r.Close(); <-d.done }()
		var sent int64
		last := time.Now()
		for e := 0; e < episodes; e++ {
			awaitParked(t, r, last)
			k := int64(rng.IntN(16))
			sendCounters(t, r, k)
			settle(t, r, d, sent+k)
			pauseBeforeLast()
			if err := r.Send(Message{Op: OpSyscall}); err != nil {
				t.Fatal(err)
			}
			sent += k + 1
			awaitRing(t, r, "System-Call message not returned", func() bool { return d.got.Load() == sent })
			last = time.Now()
		}
		if d.bad.Load() {
			t.Fatal("the drain saw a gap, a duplicate or a reorder")
		}
	})

	t.Run("full", func(t *testing.T) {
		r := NewSharedRing(8).Sender.(*SharedRing)
		d := startOrderedDrain(r)
		defer func() { r.Close(); <-d.done }()
		var sent int64
		last := time.Now()
		for e := 0; e < episodes; e++ {
			awaitParked(t, r, last)
			// The producer runs on a goroutine of its own, so one stuck in
			// a full ring fails at the deadline. The System-Call message
			// ends the episode: the producer waits on the drain only at a
			// fenced point.
			k := int64(9 + rng.IntN(16))
			var produced atomic.Bool
			go func() {
				for i := int64(0); i < k; i++ {
					if err := r.Send(counter); err != nil {
						return
					}
				}
				if r.Send(Message{Op: OpSyscall}) == nil {
					produced.Store(true)
				}
			}()
			awaitRing(t, r, "producer stuck on a full ring", produced.Load)
			sent += k + 1
			awaitRing(t, r, "messages past capacity not returned", func() bool { return d.got.Load() == sent })
			last = time.Now()
		}
		if d.bad.Load() {
			t.Fatal("the drain saw a gap, a duplicate or a reorder")
		}
	})

	t.Run("close", func(t *testing.T) {
		for e := 0; e < episodes; e++ {
			r := NewSharedRing(64).Sender.(*SharedRing)
			d := startOrderedDrain(r)
			awaitParked(t, r, time.Now())
			k := int64(rng.IntN(16))
			sendCounters(t, r, k)
			if e%2 == 0 {
				settle(t, r, d, k)
			}
			pauseBeforeLast()
			r.Close()
			awaitRing(t, r, "drain not released by Close", func() bool {
				select {
				case <-d.done:
					return true
				default:
					return false
				}
			})
			if got := d.got.Load(); got != k || d.bad.Load() {
				t.Fatalf("episode %d: the drain returned %d of %d messages before ok=false (out of order: %t)",
					e, got, k, d.bad.Load())
			}
		}
	})
}
