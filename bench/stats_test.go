package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantileAndMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 1,3,5 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
	if got := quantile(seq(101), 0.99); got != 100 {
		t.Errorf("p99 of 1..101 = %v, want 100", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// The highest percentile reported is the one that still has at least ten
// samples beyond it.
func TestSummarizePicksSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		tail float64
	}{
		{50, 0},       // 10 % of 50 is 5: no tail at all
		{100, 90},     // 10 beyond p90, 1 beyond p99
		{999, 90},     // 9 beyond p99
		{1000, 99},    // exactly 10 beyond p99
		{9999, 99},    // 9 beyond p99.9
		{10000, 99.9}, // exactly 10 beyond p99.9
		{100000, 99.99},
	} {
		s := summarize(seq(c.n))
		if s.TailPct != c.tail {
			t.Errorf("n=%d: tail percentile %v, want %v", c.n, s.TailPct, c.tail)
		}
		if s.N != c.n || s.Min != 1 || s.Max != float64(c.n) {
			t.Errorf("n=%d: summary %+v", c.n, s)
		}
		if c.tail > 0 && !s.supports(c.tail) {
			t.Errorf("n=%d: supports(%v) is false for the reported tail", c.n, c.tail)
		}
	}
	if s := summarize(nil); s.N != 0 || s.String() != "n=0" {
		t.Errorf("empty summary: %+v %q", s, s.String())
	}
}

// The sample count is always printed.
func TestSummaryStringCarriesCount(t *testing.T) {
	for _, n := range []int{3, 100, 20000} {
		str := summarize(seq(n)).String()
		if !strings.Contains(str, fmt.Sprintf("n=%d", n)) || !strings.Contains(str, "p50=") {
			t.Errorf("n=%d: %q lacks the median or the sample count", n, str)
		}
	}
	if str := summarize(seq(20000)).String(); !strings.Contains(str, "p99.9=") {
		t.Errorf("20000 samples: %q lacks p99.9", str)
	}
}

// A backlog that grows fails the rung; a flat one passes.
func TestRungSustained(t *testing.T) {
	flat := rungStats{scheduled: 100, completed: 100, latUs: seq(100), firstQ: []float64{100, 110}, lastQ: []float64{120, 130}}
	if !flat.sustained() {
		t.Error("flat rung not sustained")
	}
	grow := flat
	grow.lastQ = []float64{400, 500}
	if grow.sustained() {
		t.Error("rung whose last quarter is 4x its first counted as sustained")
	}
	lossy := flat
	lossy.completed = 98
	if lossy.sustained() {
		t.Error("rung with 98% completed counted as sustained")
	}
	slow := flat
	slow.latUs = []float64{6000, 7000, 8000}
	if slow.sustained() {
		t.Error("rung with a 7 ms median counted as sustained")
	}
}

func TestTrimmedMean(t *testing.T) {
	// Ten values: one dropped at each end, so neither outlier counts.
	xs := []float64{1000, 3, 4, 5, 6, 7, 8, 9, 10, -1000}
	if got := trimmedMean(xs, 0.1); got != 6.5 {
		t.Errorf("trimmedMean(10 values, 0.1) = %v, want 6.5", got)
	}
	if xs[0] != 1000 {
		t.Error("trimmedMean reordered its argument")
	}
	// Fewer than ten values: nothing to drop, the plain mean.
	if got := trimmedMean([]float64{1, 2, 6}, 0.1); got != 3 {
		t.Errorf("trimmedMean(3 values, 0.1) = %v, want 3", got)
	}
	if got := trimmedMean(nil, 0.1); !math.IsNaN(got) {
		t.Errorf("trimmedMean(nil) = %v, want NaN", got)
	}
}
