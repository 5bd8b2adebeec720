//go:build linux

package ipc

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestSharedRingWakesWithoutTimerTick: a drain idle past its spin budget
// resumes on the producer's next Send, not at the host's next timer tick,
// and does not poll while it waits. The producer keeps its processor after
// the send, as a generator building its next block does, so nothing but the
// ring can wake the drain. On a host whose short sleeps last a tick (1.06 ms
// on the 2-vCPU reference VM) a drain that polls with sleeps fails the first
// half. The second half counts the drain's parks and wake-ups over a 100 ms
// idle window that starts after its last burst: one park and no wake-up. A
// drain that polls parks again and again, or never; the process's CPU over
// the window is only logged, since it counts every goroutine in the binary
// (an idle drain alone costs about 0.2 ms of it).
func TestSharedRingWakesWithoutTimerTick(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the producer keeps its processor: the drain needs a second one")
	}
	const (
		episodes = 60
		giveUp   = 20 * time.Millisecond
	)
	ch := NewSharedRing(8)
	r := ch.Sender.(*SharedRing)
	var recvAt atomic.Int64 // when the drain last returned a burst, in ns
	var received atomic.Int64
	// The drain's park and wake counts when it returned its last burst,
	// before its next RecvBatch parks.
	var parksAt, wakesAt atomic.Uint32
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]Message, 8)
		for {
			n, ok, _ := ch.Receiver.RecvBatch(buf)
			if !ok {
				return
			}
			parksAt.Store(r.recv.parks.Load())
			wakesAt.Store(r.recv.wakes.Load())
			received.Add(int64(n))
			recvAt.Store(time.Now().UnixNano())
		}
	}()
	spin := func(until func() bool) {
		for !until() {
		}
	}

	// The producer idles by spinning, not sleeping, and the random part of
	// each idle puts its send at a random point of the host's timer tick.
	rng := rand.New(rand.NewPCG(3, 3))
	lat := make([]time.Duration, 0, episodes)
	for i := 0; i < episodes; i++ {
		idleEnd := time.Now().Add(2*time.Millisecond + time.Duration(rng.IntN(1000))*time.Microsecond)
		spin(func() bool { return !time.Now().Before(idleEnd) })
		recvAt.Store(0)
		t0 := time.Now()
		if err := ch.Sender.Send(Message{Arg1: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		spin(func() bool { return recvAt.Load() != 0 || time.Since(t0) > giveUp })
		if at := recvAt.Load(); at != 0 {
			lat = append(lat, time.Duration(at-t0.UnixNano()))
		} else {
			lat = append(lat, giveUp)
		}
	}
	slices.Sort(lat)
	p50 := lat[len(lat)/2]
	t.Logf("send → receive after an idle drain: p50 %v, max %v over %d episodes", p50, lat[len(lat)-1], episodes)
	if p50 > 300*time.Microsecond {
		t.Errorf("median wake-up %v, want well under a timer tick (≤ 300µs)", p50)
	}

	// The idle window starts with the drain's last burst. A Send may miss a
	// drain parking at that instant (see waiter), so the last message is a
	// System-Call message, a fenced point the drain cannot miss.
	if err := ch.Sender.Send(Message{Op: OpSyscall}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	spin(func() bool { return received.Load() == episodes+1 || time.Now().After(deadline) })
	if got := received.Load(); got != episodes+1 {
		t.Fatalf("the drain received %d of %d messages", got, episodes+1)
	}
	var before, after syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &before); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // the drain idles on the empty ring
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &after); err != nil {
		t.Fatal(err)
	}
	parks := r.recv.parks.Load() - parksAt.Load()
	wakes := r.recv.wakes.Load() - wakesAt.Load()
	cpu := time.Duration(after.Utime.Nano() + after.Stime.Nano() - before.Utime.Nano() - before.Stime.Nano())
	t.Logf("drain idle 100ms: %d park(s), %d wake-up(s); process CPU %v (an idle drain alone: ≤ 2ms)", parks, wakes, cpu)
	if parks != 1 || wakes != 0 {
		t.Errorf("an idle drain parked %d times and was woken %d times in 100ms, want one park and no wake-up", parks, wakes)
	}
	ch.Sender.Close()
	<-done
}
