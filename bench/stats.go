package main

import (
	"fmt"
	"math"
	"sort"
)

// summary describes one sample set the way every timing in the benchmark is
// reported: the median, the highest percentile the sample supports, and the
// sample count — always printed, so a reader can tell a tail estimated from
// ten thousand samples from one estimated from fifty.
type summary struct {
	N       int     `json:"n"`
	Min     float64 `json:"min"`
	Median  float64 `json:"median"`
	Max     float64 `json:"max"`
	TailPct float64 `json:"tail_pct"` // e.g. 99.9; 0 when N supports no tail
	TailVal float64 `json:"tail"`
}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the estimate is the position of a handful of
// outliers, not a property of the distribution.
const minBeyond = 10

// tailCandidates are the percentiles tried, highest first.
var tailCandidates = []float64{99.99, 99.9, 99, 90}

// quantile returns the q-quantile (0..1) of an ascending-sorted sample by
// linear interpolation between closest ranks. NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// percentile sorts a copy of xs and returns its q-quantile (0..1).
func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// repTrim is the share of a run's reps dropped at each end before the rest
// are averaged into the run's figure.
const repTrim = 0.1

// trimmedMean is the mean of xs without its ⌊trim·n⌋ lowest and as many
// highest values (xs is not modified). NaN for an empty sample.
//
// A run's per-rep figures are averaged this way rather than by their median
// because the seed machine has two speeds and switches between them every
// few seconds: a rep is either fast or slow, so the median of a run's reps
// jumps from one speed to the other as the slow share crosses one half,
// while the mean moves with the share. Trimming keeps a rep that caught a
// host stall from deciding the figure.
func trimmedMean(xs []float64, trim float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(trim * float64(len(s)))
	s = s[k : len(s)-k]
	if len(s) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// summarize computes the summary of xs (xs is not modified).
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.Min, out.Median, out.Max = s[0], quantile(s, 0.5), s[len(s)-1]
	for _, pct := range tailCandidates {
		if out.supports(pct) {
			out.TailPct, out.TailVal = pct, quantile(s, pct/100)
			break
		}
	}
	return out
}

// supports reports whether the sample is large enough to state pct.
func (s summary) supports(pct float64) bool {
	beyond := float64(s.N) * (100 - pct) / 100
	return int(math.Floor(beyond+1e-9)) >= minBeyond // 1e-9: 10000 x 0.1 % must count as 10
}

// String renders "p50=… p99.9=… n=…" (the tail is omitted when the sample
// supports none).
func (s summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	if s.TailPct == 0 {
		return fmt.Sprintf("p50=%.1f n=%d", s.Median, s.N)
	}
	return fmt.Sprintf("p50=%.1f p%g=%.1f n=%d", s.Median, s.TailPct, s.TailVal, s.N)
}
