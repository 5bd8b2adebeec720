package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"herqules/internal/supervisor"
	"herqules/internal/telemetry"
)

// WriteMetrics renders st in the Prometheus text exposition format (version
// 0.0.4): every registry counter and histogram under a sanitized
// `herqules_` name, the system lifecycle totals, and one labeled series per
// launched PID. Histograms are emitted cumulatively — `_bucket{le="..."}`
// lines are monotone non-decreasing and end at `le="+Inf"` — with the
// power-of-two bucket upper bounds, which are exact for the integer samples
// the registry records.
func WriteMetrics(w io.Writer, st supervisor.Stats) {
	// Lifecycle totals first: they exist even on a system with no registry.
	writeScalar(w, "herqules_procs_launched_total", "counter", "", st.Launched)
	writeScalar(w, "herqules_procs_finished_total", "counter", "", st.Finished)
	writeScalar(w, "herqules_procs_killed_total", "counter", "", st.Killed)
	writeScalar(w, "herqules_procs_active", "gauge", "", st.Active)
	writeScalar(w, "herqules_messages_verified_total", "counter", "", st.MessagesVerified)

	// Per-policy violation attribution, wired from Violation.Policy. Policy
	// names are registry identifiers in practice, but the label value is
	// escaped regardless — a hostile or buggy name must not corrupt the
	// exposition.
	if len(st.ViolationsByPolicy) > 0 {
		fmt.Fprintf(w, "# TYPE herqules_violations_total counter\n")
		for _, name := range sortedKeys(st.ViolationsByPolicy) {
			fmt.Fprintf(w, "herqules_violations_total{policy=\"%s\"} %d\n",
				escapeLabel(name), st.ViolationsByPolicy[name])
		}
	}

	// Registry counters, sorted for a stable exposition.
	for _, name := range sortedKeys(st.Snapshot.Counters) {
		writeScalar(w, metricName(name)+"_total", "counter", "", st.Snapshot.Counters[name].Total)
	}
	// Registry histograms.
	for _, name := range sortedKeys(st.Snapshot.Histograms) {
		writeHistogram(w, metricName(name), "", st.Snapshot.Histograms[name])
	}

	writeProcSeries(w, st.Procs)
}

// writeProcSeries emits the per-PID attribution rows as labeled series,
// metric-major (the exposition format requires all samples of one metric
// family to be contiguous).
func writeProcSeries(w io.Writer, procs []supervisor.ProcStats) {
	if len(procs) == 0 {
		return
	}
	type column struct {
		name, typ string
		value     func(p supervisor.ProcStats) uint64
	}
	cols := []column{
		{"herqules_proc_messages_total", "counter", func(p supervisor.ProcStats) uint64 { return p.Messages }},
		{"herqules_proc_dropped_total", "counter", func(p supervisor.ProcStats) uint64 { return p.Dropped }},
		{"herqules_proc_violations_total", "counter", func(p supervisor.ProcStats) uint64 { return p.Violations }},
		{"herqules_proc_syscalls_total", "counter", func(p supervisor.ProcStats) uint64 { return p.Syscalls }},
		{"herqules_proc_sync_stalls_total", "counter", func(p supervisor.ProcStats) uint64 { return p.SyncStalls }},
		{"herqules_proc_last_syscall_unix_nanos", "gauge", func(p supervisor.ProcStats) uint64 { return uint64(p.LastSyscallUnixNanos) }},
	}
	for _, c := range cols {
		fmt.Fprintf(w, "# TYPE %s %s\n", c.name, c.typ)
		for _, p := range procs {
			fmt.Fprintf(w, "%s{pid=%q} %d\n", c.name, pidLabel(p.PID), c.value(p))
		}
	}

	// State as an info-style gauge: exactly one series per PID is 1.
	fmt.Fprintf(w, "# TYPE herqules_proc_state gauge\n")
	for _, p := range procs {
		fmt.Fprintf(w, "herqules_proc_state{pid=%q,state=%q} 1\n", pidLabel(p.PID), p.State)
	}

	// Per-PID syscall-gate stall distribution.
	fmt.Fprintf(w, "# TYPE herqules_proc_syscall_stall_ns histogram\n")
	for _, p := range procs {
		writeHistogramSeries(w, "herqules_proc_syscall_stall_ns", `pid=`+strconv.Quote(pidLabel(p.PID)), p.StallNs)
	}
}

// WriteConnMetrics emits the connection plane's per-session gauges: one
// series per live session, labeled by pid and tenant. Appended to the
// /metrics exposition when a ConnReporter is wired — the transport-level
// signals (severed vs connected, resume counts, replay ack high-water, last
// receive) an operator needs to tell "the network is flapping" from "the
// verifier is behind".
func WriteConnMetrics(w io.Writer, rows []ConnRow) {
	writeScalar(w, "herqules_conn_sessions", "gauge", "", uint64(len(rows)))
	if len(rows) == 0 {
		return
	}
	type column struct {
		name  string
		value func(r ConnRow) uint64
	}
	cols := []column{
		{"herqules_conn_connected", func(r ConnRow) uint64 {
			if r.Connected {
				return 1
			}
			return 0
		}},
		{"herqules_conn_resumes_total", func(r ConnRow) uint64 { return r.Resumes }},
		{"herqules_conn_forwarded_seq", func(r ConnRow) uint64 { return r.ForwardedSeq }},
		{"herqules_conn_last_recv_unix_nanos", func(r ConnRow) uint64 { return uint64(r.LastRecvUnixNanos) }},
	}
	for _, c := range cols {
		fmt.Fprintf(w, "# TYPE %s gauge\n", c.name)
		for _, r := range rows {
			fmt.Fprintf(w, "%s{pid=%q,tenant=\"%d\"} %d\n", c.name, pidLabel(r.PID), r.Tenant, c.value(r))
		}
	}
}

func pidLabel(pid int32) string { return strconv.FormatInt(int64(pid), 10) }

// escapeLabel escapes a Prometheus label value per the text exposition
// format: backslash, double quote and newline are the only characters that
// need escaping inside a quoted label value.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

func writeScalar(w io.Writer, name, typ, labels string, v uint64) {
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	if labels != "" {
		fmt.Fprintf(w, "%s{%s} %d\n", name, labels, v)
	} else {
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
}

// writeHistogram emits the `# TYPE` header and one full bucket series.
func writeHistogram(w io.Writer, name, labels string, h telemetry.HistogramSnapshot) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	writeHistogramSeries(w, name, labels, h)
}

// writeHistogramSeries emits the cumulative `_bucket`/`_sum`/`_count` lines
// for one labeled series (no header, so several PIDs can share one family).
// Buckets are emitted through the last non-empty one; everything above folds
// into +Inf, whose value equals _count — both required by the format.
func writeHistogramSeries(w io.Writer, name, labels string, h telemetry.HistogramSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	last := 0
	for i, n := range h.Buckets {
		if n > 0 {
			last = i
		}
	}
	var cum uint64
	for i := 0; i <= last; i++ {
		cum += h.Buckets[i]
		// Upper bound 2^i - 1 is inclusive and integer-exact, but bucket 64
		// has no finite bound: it is covered by +Inf below.
		if i >= 64 {
			break
		}
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labels+sep, formatBound(telemetry.BucketUpperBound(i)), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels+sep, h.Count)
	if labels != "" {
		fmt.Fprintf(w, "%s_sum{%s} %d\n", name, labels, h.Sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.Count)
	} else {
		fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
	}
}

func formatBound(v uint64) string { return strconv.FormatUint(v, 10) }

// metricName maps a registry instrument name ("verifier.pump_stall_ns")
// to a Prometheus metric name ("herqules_verifier_pump_stall_ns"): the
// herqules_ namespace prefix, with every character outside [a-zA-Z0-9_]
// folded to '_'.
func metricName(name string) string {
	var b strings.Builder
	b.Grow(len("herqules_") + len(name))
	b.WriteString("herqules_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
