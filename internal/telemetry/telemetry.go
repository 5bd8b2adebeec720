// Package telemetry is the low-overhead metrics subsystem shared by the
// kernel gate and the verifier pipeline. The
// paper's evaluation (§5.2–§5.4) is built on per-component measurements —
// syscall stall time, message rates, queue occupancy, metadata entries — and
// Burow et al. argue that CFI systems are only comparable when such overheads
// are measured consistently; this package provides that consistent substrate.
//
// Design constraints, in order:
//
//  1. Hot-path cost: one uncontended atomic add per counter update. Counters
//     are lane-striped (one cache-line-padded cell per lane; a verifier
//     process context writes the lane its PID selects) so concurrent writers
//     rarely share a line.
//  2. Always on, so always measured the same way: a kernel, verifier or
//     supervisor.System resolves its instruments once, at construction, in a
//     registry it is given or one of its own, and counts unconditionally.
//     There is no disarmed configuration to compare against or to guard
//     for.
//  3. Readable without stopping the world: Snapshot reads every cell with
//     atomic loads; Diff subtracts two snapshots so an experiment can report
//     exactly the interval it measured.
//
// The registry is one of the package's two mechanisms. The other is the
// flight recorder (flight.go): a per-process ring of the last messages and
// kernel events, frozen when the process is killed so the verifier can report
// the window that led up to the kill.
package telemetry

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// cacheLine is the assumed coherence granularity; lane striping pads to this
// size so two lanes never false-share.
const cacheLine = 64

// counterLane is one padded counter cell.
type counterLane struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Counter is a monotonically increasing, lane-striped event counter. Writers
// that know their lane (a verifier context's PID, a worker id) use AddAt to
// stay contention-free; writers without a natural lane use Add, which is a
// single atomic add on lane 0.
type Counter struct {
	name  string
	lanes []counterLane
}

// Name reports the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n on lane 0.
func (c *Counter) Add(n uint64) { c.lanes[0].v.Add(n) }

// Inc increments the counter by one on lane 0.
func (c *Counter) Inc() { c.lanes[0].v.Add(1) }

// AddAt increments the counter by n on the given lane (wrapped into range),
// keeping concurrent writers on distinct cache lines.
func (c *Counter) AddAt(lane int, n uint64) {
	c.lanes[uint(lane)%uint(len(c.lanes))].v.Add(n)
}

// Value returns the sum across lanes.
func (c *Counter) Value() uint64 {
	var sum uint64
	for i := range c.lanes {
		sum += c.lanes[i].v.Load()
	}
	return sum
}

// Lanes reports the stripe width.
func (c *Counter) Lanes() int { return len(c.lanes) }

// Metrics is a registry of named counters and histograms. All lookup
// methods are get-or-create and safe for concurrent use; instruments should
// be resolved once at wiring time and cached, never looked up on a hot path.
type Metrics struct {
	mu       sync.Mutex
	lanes    int
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// New creates a registry whose instruments default to the given stripe width
// (lanes <= 0 selects GOMAXPROCS).
func New(lanes int) *Metrics {
	if lanes <= 0 {
		lanes = runtime.GOMAXPROCS(0)
	}
	return &Metrics{
		lanes:    lanes,
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it with the registry's stripe
// width on first use.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, lanes: make([]counterLane, m.lanes)}
	m.counters[name] = c
	return c
}

// Histogram returns the named histogram, creating it with the registry's
// stripe width on first use.
func (m *Metrics) Histogram(name string) *Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.hists[name]; ok {
		return h
	}
	h := &Histogram{name: name, lanes: make([]histLane, m.lanes)}
	m.hists[name] = h
	return h
}

// CounterSnapshot is a point-in-time counter reading.
type CounterSnapshot struct {
	Total uint64
	// Lanes carries the per-lane breakdown when the counter is striped
	// wider than one lane (the verifier's message counts, for example).
	Lanes []uint64
}

// Snapshot is a consistent-enough point-in-time reading of every instrument
// in a registry: each cell is read atomically, so totals are exact per
// instrument even while writers are live.
type Snapshot struct {
	Counters   map[string]CounterSnapshot
	Histograms map[string]HistogramSnapshot
}

// Snapshot reads every registered instrument.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]CounterSnapshot, len(m.counters)),
		Histograms: make(map[string]HistogramSnapshot, len(m.hists)),
	}
	for name, c := range m.counters {
		var cs CounterSnapshot
		if len(c.lanes) > 1 {
			cs.Lanes = make([]uint64, len(c.lanes))
		}
		for i := range c.lanes {
			v := c.lanes[i].v.Load()
			if cs.Lanes != nil {
				cs.Lanes[i] = v
			}
			cs.Total += v
		}
		s.Counters[name] = cs
	}
	for name, h := range m.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Diff returns the change from prev to s: counters and histograms subtract
// (an instrument absent from prev counts from zero).
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:   make(map[string]CounterSnapshot, len(s.Counters)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, cs := range s.Counters {
		pc := prev.Counters[name]
		out := CounterSnapshot{Total: cs.Total - pc.Total, Lanes: make([]uint64, len(cs.Lanes))}
		for i, v := range cs.Lanes {
			if i < len(pc.Lanes) {
				v -= pc.Lanes[i]
			}
			out.Lanes[i] = v
		}
		d.Counters[name] = out
	}
	for name, hs := range s.Histograms {
		d.Histograms[name] = hs.diff(prev.Histograms[name])
	}
	return d
}

// Format renders the snapshot as an aligned, name-sorted text block:
// counters with per-lane breakdowns, histograms with count/mean/p50/p90/
// p99/max.
func (s Snapshot) Format() string {
	var sb strings.Builder
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cs := s.Counters[name]
		fmt.Fprintf(&sb, "%-32s %12d", name, cs.Total)
		if len(cs.Lanes) > 1 && cs.Total > 0 {
			lanes := make([]string, len(cs.Lanes))
			for i, v := range cs.Lanes {
				lanes[i] = fmt.Sprintf("%d", v)
			}
			fmt.Fprintf(&sb, "  [%s]", strings.Join(lanes, " "))
		}
		sb.WriteByte('\n')
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		hs := s.Histograms[name]
		fmt.Fprintf(&sb, "%-32s count=%d mean=%.0f p50=%.0f p90=%.0f p99=%.0f max=%d\n",
			name, hs.Count, hs.Mean(),
			hs.Quantile(0.50), hs.Quantile(0.90), hs.Quantile(0.99), hs.Max)
	}
	return sb.String()
}
