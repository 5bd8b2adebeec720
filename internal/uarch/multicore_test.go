package uarch

import (
	"sort"
	"sync"
	"testing"

	"herqules/internal/ipc"
	"herqules/internal/mem"
)

func newMC(t *testing.T, cores, slots int) *MultiCore {
	t.Helper()
	m := mem.New()
	mc, err := NewMultiCore(m, 0x7f10_0000_0000, cores, uint64(slots)*ipc.MessageSize)
	if err != nil {
		t.Fatal(err)
	}
	return mc
}

func TestMultiCoreSingleReaderReceivesAll(t *testing.T) {
	const cores, per = 4, 200
	mc := newMC(t, cores, 32)
	var wg sync.WaitGroup
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := mc.Sender(c)
			for i := 0; i < per; i++ {
				if err := s.Send(ipc.Message{
					Op: ipc.OpCounterInc, Arg1: uint64(c), Arg2: uint64(i),
				}); err != nil {
					t.Errorf("core %d: %v", c, err)
					return
				}
			}
			s.Close()
		}(c)
	}

	r := mc.Reader()
	perCore := make(map[uint64][]uint64)
	count := 0
	for {
		m, ok, err := ipc.RecvOne(r)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		perCore[m.Arg1] = append(perCore[m.Arg1], m.Arg2)
		count++
	}
	wg.Wait()
	if count != cores*per {
		t.Fatalf("received %d, want %d", count, cores*per)
	}
	// Per-core FIFO order must hold even through the round-robin reader.
	for c, seq := range perCore {
		for i, v := range seq {
			if v != uint64(i) {
				t.Fatalf("core %d: message %d out of order (%d)", c, i, v)
			}
		}
	}
}

func TestMultiCoreAMRsAreIsolated(t *testing.T) {
	// Each writer core gets a unique AMR; a writer's traffic must never
	// appear under another core's region, and the MMU must reject
	// ordinary stores to any of them.
	m := mem.New()
	mc, err := NewMultiCore(m, 0x7f10_0000_0000, 2, 8*ipc.MessageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.Sender(0).Send(ipc.Message{Op: ipc.OpInit, Arg1: 7}); err != nil {
		t.Fatal(err)
	}
	for _, d := range mc.devices {
		if err := m.Write(d.Base(), []byte{1}); err == nil {
			t.Fatal("ordinary store to a multi-core AMR succeeded")
		}
	}
	var got [1]ipc.Message
	if n, _, err := mc.devices[0].TryRecvBatch(got[:]); n != 1 || err != nil || got[0].Arg1 != 7 {
		t.Fatalf("core 0 AMR: %v n=%d %v", got[0], n, err)
	}
	if n, _, _ := mc.devices[1].TryRecvBatch(got[:]); n != 0 {
		t.Fatal("message leaked into another core's AMR")
	}
}

func TestMultiCoreOrderedTimestamps(t *testing.T) {
	// With ordering enabled, messages carry a global counter in Arg3; the
	// reader can totally order cross-core traffic by it (§4.3).
	const cores, per = 3, 100
	mc := newMC(t, cores, 16)
	var wg sync.WaitGroup
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := mc.Sender(c)
			s.Ordered = true
			for i := 0; i < per; i++ {
				if err := s.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: uint64(c)}); err != nil {
					t.Error(err)
					return
				}
			}
			s.Close()
		}(c)
	}
	r := mc.Reader()
	var stamps []uint64
	for {
		m, ok, err := ipc.RecvOne(r)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		stamps = append(stamps, m.Arg3)
	}
	wg.Wait()
	if len(stamps) != cores*per {
		t.Fatalf("received %d", len(stamps))
	}
	// The timestamps must be a permutation of 1..N (unique, total order).
	sort.Slice(stamps, func(i, j int) bool { return stamps[i] < stamps[j] })
	for i, s := range stamps {
		if s != uint64(i+1) {
			t.Fatalf("timestamp %d at position %d: not a unique total order", s, i)
		}
	}
}

func TestMultiCoreReaderRoundRobinFairness(t *testing.T) {
	// Fill two AMRs completely, then confirm the reader alternates rather
	// than draining one first (it must visit all AMRs to unblock writers).
	mc := newMC(t, 2, 8)
	for c := 0; c < 2; c++ {
		s := mc.Sender(c)
		for i := 0; i < 8; i++ {
			if err := s.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: uint64(c)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	r := mc.Reader()
	first, _, err := ipc.RecvOne(r)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := ipc.RecvOne(r)
	if err != nil {
		t.Fatal(err)
	}
	if first.Arg1 == second.Arg1 {
		t.Errorf("reader not alternating: %d then %d", first.Arg1, second.Arg1)
	}
}

func TestMultiCoreRecvBatchDrainsAllAMRs(t *testing.T) {
	const cores, per = 3, 40
	mc := newMC(t, cores, 64)
	for c := 0; c < cores; c++ {
		s := mc.Sender(c)
		for i := 0; i < per; i++ {
			if err := s.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: uint64(c), Arg2: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
	}
	r := mc.Reader()
	if p, ok := ipc.PendingOf(r); !ok || p != cores*per {
		t.Fatalf("Pending = %d ok=%t, want %d", p, ok, cores*per)
	}
	buf := make([]ipc.Message, 32)
	seen := make(map[uint64][]uint64) // core -> sequence of Arg2
	total := 0
	for {
		k, ok, err := r.RecvBatch(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !ok && k == 0 {
			break
		}
		for i := 0; i < k; i++ {
			seen[buf[i].Arg1] = append(seen[buf[i].Arg1], buf[i].Arg2)
		}
		total += k
	}
	if total != cores*per {
		t.Fatalf("drained %d, want %d", total, cores*per)
	}
	// Per-core (per-AMR) order must be preserved even though bursts
	// interleave cores.
	for c, seq := range seen {
		for i, v := range seq {
			if v != uint64(i) {
				t.Fatalf("core %d: position %d has %d (reordered)", c, i, v)
			}
		}
	}
}
