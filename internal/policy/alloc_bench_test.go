package policy

import (
	"testing"

	"herqules/internal/ipc"
)

// BenchmarkAllocPolicies runs memsafety and temporal alone over ring_policy's
// allocation mix at its sizes — 4096 slots 256 bytes apart, the even ones
// live (2048 allocations) and checked, freed and reallocated, the odd ones
// allocated and freed, so near 2000 tombstones stand among them — and
// reports ns per allocation message. Both tables stay in cache, so what it
// prices is the interval search and the leaf shifts: the end-to-end chain
// hides a regression there behind its pointer-table misses.
func BenchmarkAllocPolicies(b *testing.B) {
	const (
		slots = 4096
		step  = 256
		size  = 128
		n     = 1 << 16
	)
	addr := func(s uint64) uint64 { return 0x5500_0000_0000 + step*s }
	var prefill []ipc.Message
	for s := uint64(0); s < slots; s += 2 {
		prefill = append(prefill, msg(ipc.OpAllocCreate, addr(s), size))
	}
	// Destructive ops come as adjacent pairs, so the stream leaves the live
	// set as it found it and can be handled any number of times.
	run := make([]ipc.Message, 0, n+1)
	for x := uint64(1); len(run) < n; {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		r := x * 0x2545f4914f6cdd1d
		pick, i := r%12, r>>8
		live := addr(2 * (i % (slots / 2)))
		switch {
		case pick < 6:
			run = append(run, msg(ipc.OpAllocCheck, live+(i>>32)%size))
		case pick < 8:
			run = append(run, msg(ipc.OpAllocCheckBase, live, live+size-1))
		case pick < 10:
			run = append(run, msg(ipc.OpAllocDestroy, live), msg(ipc.OpAllocCreate, live, size))
		default:
			free := live + step
			run = append(run, msg(ipc.OpAllocCreate, free, size), msg(ipc.OpAllocDestroy, free))
		}
	}
	ms, tp := NewMemSafety(), NewTemporal()
	handle := func(stream []ipc.Message) {
		for _, m := range stream {
			if v := ms.Handle(m); v != nil {
				b.Fatalf("memsafety: %v", v)
			}
			if v := tp.Handle(m); v != nil {
				b.Fatalf("temporal: %v", v)
			}
		}
	}
	handle(prefill)
	handle(run) // warm-up pass: the tombstones reach their steady population
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handle(run)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(run)), "ns/msg")
	b.ReportMetric(float64(tp.tombs.live), "tombstones")
}
