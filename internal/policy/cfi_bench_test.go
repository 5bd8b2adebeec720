package policy

import (
	"testing"

	"herqules/internal/ipc"
)

// BenchmarkCFIHotMix prices one CFI op on the end-to-end benchmark's hot mix:
// 4096 pointer slots 8 bytes apart, each message a random slot — a define if
// the slot is undefined, otherwise a check, a redefine or an invalidate
// (6:2:2) — handed to HandleRun 256 messages a call. The drain benchmarks
// replay a fixed define→check→invalidate triple, which the branch predictor
// learns; here the next op is a coin toss, so a per-op dispatch branch costs
// what it costs in the live hot mix. The stream ends by invalidating every
// slot still defined, so each pass starts from an empty table.
func BenchmarkCFIHotMix(b *testing.B) {
	const (
		slots = 4096
		n     = 1 << 16
		batch = 256
	)
	addr := func(s uint64) uint64 { return 0x7f00_0000_0000 + 8*s }
	vals := make([]uint64, slots) // 0 = undefined
	stream := make([]ipc.Message, 0, n+slots)
	peak, live := 0, 0
	for x := uint64(1); len(stream) < n; {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		r := x * 0x2545f4914f6cdd1d
		s, pick := r%slots, r>>32%10
		switch {
		case vals[s] == 0:
			vals[s] = r | 1
			live++
			stream = append(stream, msg(ipc.OpPointerDefine, addr(s), vals[s]))
		case pick < 6:
			stream = append(stream, msg(ipc.OpPointerCheck, addr(s), vals[s]))
		case pick < 8:
			vals[s] = r>>1 | 1
			stream = append(stream, msg(ipc.OpPointerDefine, addr(s), vals[s]))
		default:
			vals[s] = 0
			live--
			stream = append(stream, msg(ipc.OpPointerInvalidate, addr(s)))
		}
		peak = max(peak, live)
	}
	for s, v := range vals {
		if v != 0 {
			stream = append(stream, msg(ipc.OpPointerInvalidate, addr(uint64(s))))
		}
	}
	c := NewCFI()
	handle := func() {
		for i := 0; i < len(stream); i += batch {
			if _, v := c.HandleRun(stream[i:min(i+batch, len(stream))]); v != nil {
				b.Fatalf("clean hot mix: %v", v)
			}
		}
	}
	handle() // warm-up pass: the table reaches the size it keeps
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handle()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/msg")
	b.ReportMetric(float64(peak), "peak-entries")
}
