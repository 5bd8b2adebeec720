package telemetry

import (
	"bytes"
	"math"
	"sync"
	"testing"
)

func TestCounterStriping(t *testing.T) {
	m := New(4)
	c := m.Counter("c")
	if c.Lanes() != 4 {
		t.Fatalf("lanes = %d, want 4", c.Lanes())
	}
	c.Add(1)
	c.AddAt(1, 10)
	c.AddAt(2, 100)
	c.AddAt(6, 1000) // wraps to lane 2
	if c.Value() != 1111 {
		t.Errorf("Value = %d, want 1111", c.Value())
	}
	s := m.Snapshot()
	cs := s.Counters["c"]
	if cs.Total != 1111 {
		t.Errorf("snapshot total = %d", cs.Total)
	}
	if cs.Lanes[2] != 1100 {
		t.Errorf("lane 2 = %d, want 1100", cs.Lanes[2])
	}
}

func TestCounterGetOrCreate(t *testing.T) {
	m := New(2)
	if m.Counter("x") != m.Counter("x") {
		t.Error("same name returned distinct counters")
	}
	if m.Histogram("h") != m.Histogram("h") {
		t.Error("same name returned distinct histograms")
	}
}

// TestDiffMaxStaysInWindow: a window's Max and quantiles describe the
// window's samples, never a larger sample observed before it.
func TestDiffMaxStaysInWindow(t *testing.T) {
	m := New(1)
	h := m.Histogram("lat")
	h.Observe(1 << 20)
	before := m.Snapshot()
	h.Observe(5)
	d := m.Snapshot().Diff(before).Histograms["lat"]
	if d.Max < 4 || d.Max > 7 {
		t.Errorf("window Max = %d, want within the window's bucket [4, 7]", d.Max)
	}
	if q := d.Quantile(0.5); q < 4 || q > 7 {
		t.Errorf("window p50 = %f, want within [4, 7]", q)
	}
	// The lifetime Max is exact when it lies in the window's top bucket.
	h.Observe(1<<20 + 1)
	if d := m.Snapshot().Diff(before).Histograms["lat"]; d.Max != 1<<20+1 {
		t.Errorf("window Max = %d, want the exact %d", d.Max, 1<<20+1)
	}
	if d := m.Snapshot().Diff(m.Snapshot()).Histograms["lat"]; d.Max != 0 || d.Count != 0 {
		t.Errorf("empty window = %+v, want Max 0", d)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	m := New(1)
	h := m.Histogram("lat")
	// 1000 samples uniform on [0, 1000): quantile estimates must land
	// within one power-of-two bucket of the true value.
	for i := 0; i < 1000; i++ {
		h.Observe(uint64(i))
	}
	s := m.Snapshot().Histograms["lat"]
	if s.Count != 1000 || s.Max != 999 {
		t.Fatalf("count=%d max=%d", s.Count, s.Max)
	}
	if mean := s.Mean(); math.Abs(mean-499.5) > 0.5 {
		t.Errorf("mean = %f", mean)
	}
	p50 := s.Quantile(0.50)
	if p50 < 256 || p50 > 1024 {
		t.Errorf("p50 = %f, want within bucket of ~500", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 512 || p99 > 999 {
		t.Errorf("p99 = %f, want within bucket of ~990", p99)
	}
	if q := s.Quantile(1.0); q != 999 {
		t.Errorf("p100 = %f, want exactly max", q)
	}
}

func TestHistogramZeroAndEmpty(t *testing.T) {
	m := New(1)
	h := m.Histogram("z")
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram must report zeros")
	}
	h.Observe(0)
	s := m.Snapshot().Histograms["z"]
	if s.Count != 1 || s.Buckets[0] != 1 {
		t.Errorf("zero observation landed wrong: %+v", s)
	}
	if s.Quantile(0.5) != 0 {
		t.Errorf("p50 of all-zero = %f", s.Quantile(0.5))
	}
}

func TestSnapshotDiff(t *testing.T) {
	m := New(2)
	c := m.Counter("msgs")
	h := m.Histogram("batch")
	c.Add(10)
	h.Observe(4)
	before := m.Snapshot()
	c.AddAt(1, 5)
	h.Observe(8)
	h.Observe(8)
	diff := m.Snapshot().Diff(before)
	if diff.Counters["msgs"].Total != 5 {
		t.Errorf("diff counter = %d, want 5", diff.Counters["msgs"].Total)
	}
	if diff.Counters["msgs"].Lanes[1] != 5 {
		t.Errorf("diff lane 1 = %d", diff.Counters["msgs"].Lanes[1])
	}
	hs := diff.Histograms["batch"]
	if hs.Count != 2 || hs.Sum != 16 {
		t.Errorf("diff histogram = %+v", hs)
	}
	// An instrument created after the first snapshot diffs from zero.
	m.Counter("late").Add(3)
	diff2 := m.Snapshot().Diff(before)
	if diff2.Counters["late"].Total != 3 {
		t.Errorf("late counter diff = %d", diff2.Counters["late"].Total)
	}
}

func TestFormatMentionsEveryInstrument(t *testing.T) {
	m := New(2)
	m.Counter("alpha").Add(7)
	m.Histogram("beta").Observe(3)
	out := m.Snapshot().Format()
	for _, want := range []string{"alpha", "beta", "p50", "p99"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("format output missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentInstruments exercises every write path from many goroutines;
// run under -race this is the package's memory-safety proof.
func TestConcurrentInstruments(t *testing.T) {
	m := New(4)
	c := m.Counter("c")
	h := m.Histogram("h")
	const workers = 8
	const per = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.AddAt(w, 1)
				h.ObserveAt(w, uint64(i))
				if i%500 == 0 {
					_ = m.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if got := s.Counters["c"].Total; got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := s.Histograms["h"].Count; got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	if got := s.Histograms["h"].Max; got != per-1 {
		t.Errorf("histogram max = %d, want %d", got, per-1)
	}
}

// TestQuantileEdgeCases covers the histogram-quantile boundaries: empty
// histogram, a single sample (every quantile must return exactly it), and all
// samples in the top bucket (p99 must not index past the last bucket and must
// stay clamped to the exact Max).
func TestQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty.Quantile(%v) = %v, want 0", q, got)
		}
	}
	if empty.Mean() != 0 {
		t.Errorf("empty.Mean() = %v, want 0", empty.Mean())
	}

	m := New(1)
	single := m.Histogram("single")
	single.Observe(5)
	ss := m.Snapshot().Histograms["single"]
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		if got := ss.Quantile(q); got != 5 {
			t.Errorf("single-sample Quantile(%v) = %v, want exactly 5 (clamped to Max)", q, got)
		}
	}
	// Out-of-range q values are clamped, not an index error.
	if got := ss.Quantile(-1); got < 0 || got > 5 {
		t.Errorf("Quantile(-1) = %v, want within [0, 5]", got)
	}
	if got := ss.Quantile(2); got != 5 {
		t.Errorf("Quantile(2) = %v, want 5", got)
	}

	// All samples land in the very last bucket (values with bit 63 set):
	// the quantile walk must terminate at the final bucket, never read past
	// it, and the interpolated estimate must clamp to the recorded Max.
	top := m.Histogram("top")
	const hi = uint64(1) << 63
	for i := uint64(0); i < 10; i++ {
		top.Observe(hi + i)
	}
	ts := m.Snapshot().Histograms["top"]
	for _, q := range []float64{0.5, 0.99, 1} {
		got := ts.Quantile(q)
		if math.IsNaN(got) || got < float64(hi) || got > float64(ts.Max) {
			t.Errorf("top-bucket Quantile(%v) = %v, want within [2^63, Max=%d]", q, got, ts.Max)
		}
	}
	if ts.Max != hi+9 {
		t.Errorf("Max = %d, want %d", ts.Max, hi+9)
	}
}

// TestSnapshotDiffFewerSeriesInBase diffs against a base snapshot taken
// before some instruments were registered: the missing series must count from
// zero rather than panic or vanish.
func TestSnapshotDiffFewerSeriesInBase(t *testing.T) {
	m := New(2)
	m.Counter("old").Add(7)
	m.Histogram("oldh").Observe(3)
	base := m.Snapshot()

	m.Counter("old").Add(5)
	m.Counter("new").Add(11)
	m.Histogram("oldh").Observe(3)
	m.Histogram("newh").Observe(9)

	d := m.Snapshot().Diff(base)
	if got := d.Counters["old"].Total; got != 5 {
		t.Errorf("old counter diff = %d, want 5", got)
	}
	if got := d.Counters["new"].Total; got != 11 {
		t.Errorf("counter missing from base: diff = %d, want full value 11", got)
	}
	if got := d.Histograms["oldh"].Count; got != 1 {
		t.Errorf("oldh diff count = %d, want 1", got)
	}
	nh := d.Histograms["newh"]
	if nh.Count != 1 || nh.Sum != 9 {
		t.Errorf("histogram missing from base: diff = %+v, want count=1 sum=9", nh)
	}
}

// TestHistogramSnapshotRecord checks the single-writer Record helper used for
// private per-entity histograms (the kernel's per-PID stall distribution).
func TestHistogramSnapshotRecord(t *testing.T) {
	var s HistogramSnapshot
	for _, v := range []uint64{0, 1, 5, 1000} {
		s.Record(v)
	}
	if s.Count != 4 || s.Sum != 1006 || s.Max != 1000 {
		t.Fatalf("after Record: %+v", s)
	}
	if s.Buckets[0] != 1 { // the zero observation
		t.Errorf("zero bucket = %d, want 1", s.Buckets[0])
	}
	if got := s.Quantile(1); got != 1000 {
		t.Errorf("Quantile(1) = %v, want 1000", got)
	}
}

// TestBucketUpperBound pins the le-boundary mapping the Prometheus exposition
// relies on: bucket i holds [2^(i-1), 2^i), so its inclusive bound is 2^i-1.
func TestBucketUpperBound(t *testing.T) {
	cases := map[int]uint64{0: 0, 1: 1, 2: 3, 3: 7, 10: 1023, 64: ^uint64(0), 70: ^uint64(0)}
	for i, want := range cases {
		if got := BucketUpperBound(i); got != want {
			t.Errorf("BucketUpperBound(%d) = %d, want %d", i, got, want)
		}
	}
	var s HistogramSnapshot
	s.Record(6) // lands in bucket 3: [4, 8)
	if s.Buckets[3] != 1 || BucketUpperBound(3) < 6 {
		t.Errorf("sample 6 not covered by its bucket's upper bound")
	}
}
