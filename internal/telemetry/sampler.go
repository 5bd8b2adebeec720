package telemetry

import (
	"sync/atomic"
	"time"
)

// DefaultSampleEvery is the default latency-sampling period: one message in
// 1024 is stamped at send time and matched at validation time, giving a live
// estimate of the paper's "validation lag" (send → validate latency, §5.3)
// at a hot-path cost of one mask-and-branch per message.
const DefaultSampleEvery = 1024

// sampleSlots is the size of the sampler's open-addressed stamp table. The
// table only needs to hold the samples currently in flight between a sender
// and the verifier — at 1-in-1024 sampling and typical queue depths of a few
// thousand messages that is a handful of entries per process; 512 slots keep
// collisions negligible for hundreds of concurrent processes.
const sampleSlots = 512

// sampleSlot is one stamp-table entry: a packed (pid, seq) key and the
// nanosecond send timestamp. Both fields are written and read atomically but
// not as a unit; a concurrent overwrite of the same slot can pair a key with
// a neighbouring stamp's timestamp. That is acceptable by construction —
// sampling estimates a distribution, and colliding stamps are issued within
// nanoseconds of each other — and keeps Stamp/Take lock-free.
type sampleSlot struct {
	key atomic.Uint64
	ts  atomic.Int64
}

// LatencySampler implements 1-in-N end-to-end message-latency sampling: the
// instrumented sender stamps the send time of every N-th message (by its
// per-channel sequence number), and the verifier takes the stamp back when
// it validates that message, observing the difference into a histogram. N is
// a power of two so the sampling decision is one AND plus a branch on both
// sides.
type LatencySampler struct {
	mask  uint64
	start time.Time
	slots [sampleSlots]sampleSlot
}

// EnableLatencySampling attaches a latency sampler with the given period to
// the registry and returns it. everyN is rounded up to a power of two;
// everyN <= 0 selects DefaultSampleEvery. Like EnableTrace, a second call
// returns the sampler already attached (the period of the first call wins),
// so several components wiring the same registry share one stamp table.
func (m *Metrics) EnableLatencySampling(everyN int) *LatencySampler {
	if s := m.sampler.Load(); s != nil {
		return s
	}
	if everyN <= 0 {
		everyN = DefaultSampleEvery
	}
	n := uint64(1)
	for n < uint64(everyN) {
		n <<= 1
	}
	s := &LatencySampler{mask: n - 1, start: time.Now()}
	if m.sampler.CompareAndSwap(nil, s) {
		return s
	}
	return m.sampler.Load()
}

// LatencySampler returns the attached sampler, or nil when latency sampling
// is disabled. Components cache the result at wiring time; the hot path then
// pays a nil check.
func (m *Metrics) LatencySampler() *LatencySampler { return m.sampler.Load() }

// EveryN reports the sampling period.
func (s *LatencySampler) EveryN() uint64 { return s.mask + 1 }

// Sampled reports whether the message with the given sequence number is a
// sampling point. Sequence numbers are 1-based across every transport;
// seq 0 (an unset counter) is never sampled, so replayed or hand-built
// streams without counters cannot match stale stamps.
func (s *LatencySampler) Sampled(seq uint64) bool {
	return seq&s.mask == 0 && seq != 0
}

// sampleKey packs the process identity into the high half and the (wrapped)
// sequence number into the low half. A false match would need the same PID
// and two in-flight sequence numbers 2^32 apart — beyond any realistic
// in-flight window.
func sampleKey(pid int32, seq uint64) uint64 {
	return uint64(uint32(pid))<<32 | (seq & 0xffffffff)
}

func (s *LatencySampler) slotFor(pid int32, seq uint64) *sampleSlot {
	h := (uint64(uint32(pid))*2654435761 + seq) // Knuth multiplicative hash
	return &s.slots[h%sampleSlots]
}

// Stamp records "message (pid, seq) was sent now". Called by the sender side
// only for sampling points. The timestamp is written before the key, so a
// concurrent Take that observes the key also observes a timestamp at least
// as fresh as the previous occupant's.
func (s *LatencySampler) Stamp(pid int32, seq uint64) {
	slot := s.slotFor(pid, seq)
	slot.ts.Store(time.Since(s.start).Nanoseconds())
	slot.key.Store(sampleKey(pid, seq))
}

// Take returns the nanoseconds elapsed since (pid, seq) was stamped and
// removes the stamp. ok is false when the stamp is missing — the slot was
// reused by a colliding sample, or the message reached the verifier without
// passing an instrumented sender (inline delivery, replayed streams).
func (s *LatencySampler) Take(pid int32, seq uint64) (nanos int64, ok bool) {
	slot := s.slotFor(pid, seq)
	k := sampleKey(pid, seq)
	if slot.key.Load() != k {
		return 0, false
	}
	ts := slot.ts.Load()
	if !slot.key.CompareAndSwap(k, 0) {
		return 0, false
	}
	d := time.Since(s.start).Nanoseconds() - ts
	if d < 0 {
		d = 0
	}
	return d, true
}
