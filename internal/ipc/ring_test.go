package ipc

import (
	"math/rand/v2"
	"runtime"
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

// TestSharedRingLayout: the cursors share the first cache line and the
// waiters the second, and the struct is exactly two lines.
func TestSharedRingLayout(t *testing.T) {
	var r SharedRing
	if s := unsafe.Sizeof(r); s != 128 {
		t.Fatalf("SharedRing is %d bytes, want 128", s)
	}
	if o := unsafe.Offsetof(r.seq); o >= 64 {
		t.Fatalf("seq at offset %d, want it on the first line", o)
	}
	if o := unsafe.Offsetof(r.recv); o != 64 {
		t.Fatalf("recv waiter at offset %d, want 64", o)
	}
}
