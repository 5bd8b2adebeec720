package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the bucket count of the power-of-two histogram: bucket 0
// holds zero-valued observations, bucket i (i >= 1) holds values in
// [2^(i-1), 2^i). 64-bit values need at most 64 value buckets plus the zero
// bucket.
const histBuckets = 65

// histLane is one stripe of a histogram. The bucket array dominates the
// struct, so only the trailing pad matters: it keeps the next lane's hot
// leading fields (count/sum) off this lane's last cache line.
type histLane struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
	_       [cacheLine]byte
}

// Histogram is a lane-striped, power-of-two-bucketed distribution of uint64
// samples (latencies in nanoseconds, batch sizes, queue depths). An Observe
// is three uncontended atomic adds plus a rare max update; quantiles are
// estimated at snapshot time by linear interpolation within the landing
// bucket, which bounds the error to the bucket's width.
type Histogram struct {
	name  string
	lanes []histLane
}

// Name reports the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// Observe records v on lane 0.
func (h *Histogram) Observe(v uint64) { h.ObserveAt(0, v) }

// ObserveAt records v on the given lane (wrapped into range).
func (h *Histogram) ObserveAt(lane int, v uint64) {
	l := &h.lanes[uint(lane)%uint(len(h.lanes))]
	l.count.Add(1)
	l.sum.Add(v)
	l.buckets[bits.Len64(v)].Add(1)
	for {
		cur := l.max.Load()
		if v <= cur || l.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// HistogramSnapshot is a point-in-time histogram reading, mergeable and
// diffable bucket-by-bucket.
type HistogramSnapshot struct {
	Count   uint64              `json:"count"`
	Sum     uint64              `json:"sum"`
	Max     uint64              `json:"max"`
	Buckets [histBuckets]uint64 `json:"buckets"`
}

// BucketUpperBound returns the inclusive upper bound of bucket i: 0 for the
// zero bucket, 2^i - 1 for value bucket i (which holds [2^(i-1), 2^i)). The
// Prometheus exposition uses these as `le` boundaries; they are exact for
// integer-valued samples.
func BucketUpperBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<i - 1
}

func (h *Histogram) snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.lanes {
		l := &h.lanes[i]
		s.Count += l.count.Load()
		s.Sum += l.sum.Load()
		if m := l.max.Load(); m > s.Max {
			s.Max = m
		}
		for b := range l.buckets {
			s.Buckets[b] += l.buckets[b].Load()
		}
	}
	return s
}

// diff subtracts prev bucket-by-bucket. The lifetime Max may predate the
// window, so the window's Max is bounded by its highest non-empty bucket:
// s.Max when it lies in that bucket, else the bucket's upper edge, and 0 for
// an empty window.
func (s HistogramSnapshot) diff(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: s.Count - prev.Count, Sum: s.Sum - prev.Sum}
	top := -1
	for i := range s.Buckets {
		if out.Buckets[i] = s.Buckets[i] - prev.Buckets[i]; out.Buckets[i] != 0 {
			top = i
		}
	}
	switch {
	case top < 0:
	case bits.Len64(s.Max) == top:
		out.Max = s.Max
	default:
		out.Max = BucketUpperBound(top)
	}
	return out
}

// Record folds one sample into the snapshot in place. It is the
// single-writer complement to Histogram.Observe for callers that keep a
// private per-entity distribution under their own lock (the kernel's per-PID
// syscall-stall histogram) instead of registering a striped instrument per
// entity in a registry.
func (s *HistogramSnapshot) Record(v uint64) {
	s.Count++
	s.Sum += v
	if v > s.Max {
		s.Max = v
	}
	s.Buckets[bits.Len64(v)]++
}

// Mean returns the arithmetic mean of the recorded samples (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) by locating the bucket
// containing the q-th sample and interpolating linearly inside it. The
// estimate is clamped to Max, which is exact.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if s.Count == 1 {
		// One sample: every quantile is that sample, and Max records it
		// exactly — skip the in-bucket interpolation, whose lower edge
		// would otherwise leak through for small q.
		return float64(s.Max)
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if seen+float64(n) >= rank {
			var lo, hi float64
			if i == 0 {
				lo, hi = 0, 0
			} else {
				lo = float64(uint64(1) << (i - 1))
				hi = 2 * lo
			}
			frac := (rank - seen) / float64(n)
			est := lo + frac*(hi-lo)
			if est > float64(s.Max) {
				est = float64(s.Max)
			}
			return est
		}
		seen += float64(n)
	}
	return float64(s.Max)
}
