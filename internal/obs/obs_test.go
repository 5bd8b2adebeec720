package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"herqules/internal/compiler"
	"herqules/internal/ipc"
	"herqules/internal/mir"
	"herqules/internal/supervisor"
	"herqules/internal/telemetry"
	"herqules/internal/verifier"
	"herqules/internal/vm"
)

// cleanProgram builds a small HQ-instrumented program: an indirect call
// through a heap slot plus two gated syscalls, enough to exercise the
// AppendWrite channel, the verifier and the kernel gate.
func cleanProgram(t *testing.T) *compiler.Instrumented {
	t.Helper()
	mod := mir.NewModule("obs-prog")
	b := mir.NewBuilder(mod)
	sig := mir.FuncType(mir.I64, mir.I64)

	legit := b.Func("legit", sig, "x")
	b.Ret(b.Add(legit.Params[0], mir.ConstInt(1)))

	b.Func("main", mir.FuncType(mir.I64))
	slot := b.Cast(b.Malloc(mir.ConstInt(16)), mir.Ptr(mir.Ptr(sig)))
	b.Store(b.FuncAddr(legit), slot)
	fp := b.Load(slot)
	r := b.ICall(fp, sig, mir.ConstInt(41))
	b.Syscall(vm.SysWrite, r)
	b.Syscall(vm.SysExit, mir.ConstInt(0))
	b.Ret(mir.ConstInt(0))
	mod.Finalize()
	if err := mir.Validate(mod); err != nil {
		t.Fatal(err)
	}
	ins, err := compiler.Instrument(mod, compiler.HQSfeStk, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// sampleLine matches one exposition sample: name, optional label set, value.
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?\d+(?:\.\d+)?|\+Inf)$`)

// typeLine matches one `# TYPE name kind` comment.
var typeLine = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)

// checkExposition parses body as Prometheus text exposition: every
// non-comment line must match the sample grammar, every sample's metric
// family must have been declared with a `# TYPE` line, and every histogram's
// cumulative buckets must be monotone non-decreasing with the +Inf bucket
// equal to its _count. Returns the parsed samples keyed by name{labels}.
func checkExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string) // family name -> declared type
	type bucketSeries struct {
		order []float64 // le bounds in emission order
		cum   []float64
	}
	buckets := make(map[string]*bucketSeries) // histogram series (labels minus le)
	leRe := regexp.MustCompile(`le="([^"]*)"`)

	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			if tm := typeLine.FindStringSubmatch(line); tm != nil {
				typed[tm[1]] = tm[2]
			}
			continue
		}
		// Before the first sample of a family, its `# TYPE` must have appeared.
		if name := sampleLine.FindStringSubmatch(line); name != nil {
			fam := name[1]
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(fam, suf); base != fam && typed[base] == "histogram" {
					fam = base
					break
				}
			}
			if _, ok := typed[fam]; !ok {
				t.Errorf("sample %q has no preceding # TYPE for family %s", line, fam)
			}
		}
		mm := sampleLine.FindStringSubmatch(line)
		if mm == nil {
			t.Fatalf("malformed exposition line: %q", line)
		}
		name, labels, valStr := mm[1], mm[2], mm[3]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[name+labels] = val

		if strings.HasSuffix(name, "_bucket") {
			le := leRe.FindStringSubmatch(labels)
			if le == nil {
				t.Fatalf("bucket line without le label: %q", line)
			}
			bound := float64(0)
			if le[1] == "+Inf" {
				bound = -1 // sentinel: must be last
			} else if bound, err = strconv.ParseFloat(le[1], 64); err != nil {
				t.Fatalf("unparseable le bound in %q: %v", line, err)
			}
			key := name + leRe.ReplaceAllString(labels, "")
			bs := buckets[key]
			if bs == nil {
				bs = &bucketSeries{}
				buckets[key] = bs
			}
			bs.order = append(bs.order, bound)
			bs.cum = append(bs.cum, val)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for key, bs := range buckets {
		for i := 1; i < len(bs.cum); i++ {
			if bs.cum[i] < bs.cum[i-1] {
				t.Errorf("%s: cumulative buckets not monotone: %v", key, bs.cum)
				break
			}
		}
		if last := bs.order[len(bs.order)-1]; last != -1 {
			t.Errorf("%s: last bucket bound is %v, want +Inf", key, last)
		}
		// +Inf must equal the family's _count for the same labels.
		countKey := strings.Replace(key, "_bucket", "_count", 1)
		countKey = strings.TrimSuffix(countKey, "{}")
		if cnt, ok := samples[countKey]; ok && cnt != bs.cum[len(bs.cum)-1] {
			t.Errorf("%s: +Inf bucket %v != count %v", key, bs.cum[len(bs.cum)-1], cnt)
		}
	}
	return samples
}

// TestMetricsEndpointLiveSystem is the acceptance test: scrape /metrics
// while a multi-process System runs, and assert the drains' pump-stall
// histogram is populated, every launched PID has its own labeled series, and
// the whole exposition parses with monotone cumulative buckets.
func TestMetricsEndpointLiveSystem(t *testing.T) {
	sys := supervisor.New(supervisor.Config{Metrics: telemetry.New(0)})
	srv := NewServer(sys)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	const procs = 4
	ins := cleanProgram(t)
	pids := make([]int32, 0, procs)
	handles := make([]*supervisor.Proc, 0, procs)
	for i := 0; i < procs; i++ {
		p, err := sys.Launch(ins, supervisor.LaunchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, p.PID())
		handles = append(handles, p)
	}

	// Scrape mid-run at least once: the endpoints must be serveable while
	// drains are hot, not only at quiescence.
	if code, _ := get(t, base+"/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics mid-run: status %d", code)
	}

	for _, p := range handles {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	samples := checkExposition(t, body)

	if v := samples["herqules_messages_verified_total"]; v <= 0 {
		t.Errorf("herqules_messages_verified_total = %v, want > 0", v)
	}
	if c := samples["herqules_verifier_pump_stall_ns_count"]; c <= 0 {
		t.Errorf("pump_stall histogram empty: count=%v\n%s", c, body)
	}
	for _, pid := range pids {
		key := fmt.Sprintf(`herqules_proc_messages_total{pid="%d"}`, pid)
		v, ok := samples[key]
		if !ok {
			t.Errorf("no per-PID series %s", key)
		} else if v <= 0 {
			t.Errorf("%s = %v, want > 0", key, v)
		}
		stall := fmt.Sprintf(`herqules_proc_syscall_stall_ns_count{pid="%d"}`, pid)
		if _, ok := samples[stall]; !ok {
			t.Errorf("no per-PID stall histogram for pid %d", pid)
		}
	}
	if samples["herqules_procs_launched_total"] != procs {
		t.Errorf("launched_total = %v, want %d", samples["herqules_procs_launched_total"], procs)
	}

	// /healthz: up while running.
	code, hbody := get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: status %d body %s", code, hbody)
	}
	var h supervisor.Health
	if err := json.Unmarshal([]byte(hbody), &h); err != nil {
		t.Fatalf("/healthz: bad JSON: %v", err)
	}
	if !h.Up || h.Poisoned != 0 || h.Degraded() {
		t.Errorf("healthz = %+v, want up and not degraded", h)
	}

	// /procs: the Stats document, with one row per launched PID.
	code, pbody := get(t, base+"/procs")
	if code != http.StatusOK {
		t.Fatalf("/procs: status %d", code)
	}
	var doc struct {
		Launched uint64 `json:"launched"`
		Procs    []struct {
			PID      int32  `json:"pid"`
			State    string `json:"state"`
			Messages uint64 `json:"messages"`
		} `json:"procs"`
	}
	if err := json.Unmarshal([]byte(pbody), &doc); err != nil {
		t.Fatalf("/procs: bad JSON: %v\n%s", err, pbody)
	}
	if len(doc.Procs) != procs {
		t.Fatalf("/procs rows = %d, want %d", len(doc.Procs), procs)
	}
	for _, row := range doc.Procs {
		if row.State != "exited" {
			t.Errorf("pid %d state %q, want exited", row.PID, row.State)
		}
		if row.Messages == 0 {
			t.Errorf("pid %d has zero validated messages", row.PID)
		}
	}

	// There is no event-trace endpoint: the flight recorder behind
	// /violations is the one event record.
	if code, _ := get(t, base+"/trace"); code != http.StatusNotFound {
		t.Errorf("/trace: status %d, want 404", code)
	}

	// pprof index should serve.
	if code, _ := get(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/: status %d", code)
	}

	// After shutdown, /healthz flips to 503 but /metrics still serves.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, base+"/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz after shutdown: status %d, want 503", code)
	}
	if code, _ := get(t, base+"/metrics"); code != http.StatusOK {
		t.Errorf("/metrics after shutdown: status %d", code)
	}
}

// TestWriteMetricsSynthetic exercises the exposition writer against a
// hand-built Stats value: sanitized names, cumulative buckets, per-PID
// labels — without a live system.
func TestWriteMetricsSynthetic(t *testing.T) {
	var h telemetry.HistogramSnapshot
	for _, v := range []uint64{0, 1, 3, 9, 1000} {
		h.Record(v)
	}
	st := supervisor.Stats{
		Launched: 2, Active: 1, Finished: 1,
		MessagesVerified: 42,
		Procs: []supervisor.ProcStats{
			{PID: 7, State: "running", Messages: 40, Syscalls: 3, StallNs: h},
			{PID: 9, State: "killed", Messages: 2, Violations: 1, KillReason: "cfi"},
		},
		Snapshot: telemetry.Snapshot{
			Counters:   map[string]telemetry.CounterSnapshot{verifier.MessagesVerified: {Total: 42}},
			Histograms: map[string]telemetry.HistogramSnapshot{"verifier.pump_stall_ns": h},
		},
	}
	var b strings.Builder
	WriteMetrics(&b, st)
	body := b.String()
	samples := checkExposition(t, body)

	for key, want := range map[string]float64{
		"herqules_verifier_pump_stall_ns_count":         5,
		"herqules_verifier_pump_stall_ns_sum":           1013,
		`herqules_proc_messages_total{pid="7"}`:         40,
		`herqules_proc_messages_total{pid="9"}`:         2,
		`herqules_proc_violations_total{pid="9"}`:       1,
		`herqules_proc_state{pid="9",state="killed"}`:   1,
		`herqules_proc_syscall_stall_ns_count{pid="7"}`: 5,
		"herqules_procs_launched_total":                 2,
		"herqules_messages_verified_total":              42,
	} {
		if got := samples[key]; got != want {
			t.Errorf("%s = %v, want %v\n%s", key, got, want, body)
		}
	}

	// The zero bucket must appear with le="0" and the 1000-sample must land
	// in le="1023" cumulative 5.
	if got := samples[`herqules_verifier_pump_stall_ns_bucket{le="0"}`]; got != 1 {
		t.Errorf(`le="0" bucket = %v, want 1`, got)
	}
	if got := samples[`herqules_verifier_pump_stall_ns_bucket{le="1023"}`]; got != 5 {
		t.Errorf(`le="1023" bucket = %v, want 5`, got)
	}
}

// TestWriteMetricsViolationSeries: the forensics series — per-policy
// violation counters with escaped label values — must render as well-formed
// exposition even for hostile policy names.
func TestWriteMetricsViolationSeries(t *testing.T) {
	st := supervisor.Stats{
		ViolationsByPolicy: map[string]uint64{
			"cfi":         3,
			`evil"name`:   1,
			"back\\slash": 2,
			"multi\nline": 4,
			"seq":         7,
		},
	}
	var b strings.Builder
	WriteMetrics(&b, st)
	body := b.String()
	samples := checkExposition(t, body)

	for key, want := range map[string]float64{
		`herqules_violations_total{policy="cfi"}`:         3,
		`herqules_violations_total{policy="seq"}`:         7,
		`herqules_violations_total{policy="evil\"name"}`:  1,
		`herqules_violations_total{policy="back\\slash"}`: 2,
		`herqules_violations_total{policy="multi\nline"}`: 4,
	} {
		if got := samples[key]; got != want {
			t.Errorf("%s = %v, want %v\n%s", key, got, want, body)
		}
	}
	// Raw (unescaped) quote or newline inside a label value would have failed
	// checkExposition's line grammar already; double-check the escapes landed.
	if !strings.Contains(body, `policy="evil\"name"`) {
		t.Errorf("quote not escaped in exposition:\n%s", body)
	}
	if !strings.Contains(body, `policy="multi\nline"`) {
		t.Errorf("newline not escaped in exposition:\n%s", body)
	}
}

// degradedSystem is a synthetic System whose Health reports poisoned
// processes.
type degradedSystem struct{ poisoned int }

func (d degradedSystem) Stats() supervisor.Stats { return supervisor.Stats{} }
func (d degradedSystem) Health() supervisor.Health {
	return supervisor.Health{Up: true, Poisoned: d.poisoned,
		DegradedPolicy: "fail-closed"}
}
func (d degradedSystem) Forensics(pid int32) (supervisor.ForensicReport, bool) {
	return supervisor.ForensicReport{}, false
}
func (d degradedSystem) AllForensics() []supervisor.ForensicReport { return nil }

// TestHealthzReportsDegradedAs503: a poisoned process context means the
// verifier hit a bug in its own delivery path — the probe must go unhealthy
// even though the system is still up, so an orchestrator replaces the
// instance.
func TestHealthzReportsDegradedAs503(t *testing.T) {
	srv := NewServer(degradedSystem{poisoned: 1})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, "http://"+srv.Addr()+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with a poisoned process: status %d, want 503", code)
	}
	var h supervisor.Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if !h.Up || h.Poisoned != 1 || !h.Degraded() {
		t.Errorf("health document = %+v, want up-but-degraded", h)
	}

	// Nothing poisoned: healthy.
	srv2 := NewServer(degradedSystem{poisoned: 0})
	if err := srv2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if code, _ := get(t, "http://"+srv2.Addr()+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz healthy system: status %d, want 200", code)
	}
}

// TestViolationsEndpointsLiveSystem drives a real System with the flight
// recorder armed, provokes a CFI kill by hand-delivering a corrupted
// pointer-check message, and validates the /violations index, the per-PID
// report document, and the per-policy violation counter on /metrics.
func TestViolationsEndpointsLiveSystem(t *testing.T) {
	sys := supervisor.New(supervisor.Config{
		KillOnViolation: true,
		FlightRecorder:  64,
	})
	srv := NewServer(sys)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Before any kill, the index is an empty JSON array and a lookup 404s.
	code, body := get(t, base+"/violations")
	if code != http.StatusOK {
		t.Fatalf("/violations empty: status %d", code)
	}
	var empty []map[string]any
	if err := json.Unmarshal([]byte(body), &empty); err != nil || len(empty) != 0 {
		t.Fatalf("/violations empty: want [] got %q (err %v)", body, err)
	}
	if code, _ := get(t, base+"/violations/12345"); code != http.StatusNotFound {
		t.Errorf("/violations/12345 with no report: status %d, want 404", code)
	}
	if code, _ := get(t, base+"/violations/nonsense"); code != http.StatusBadRequest {
		t.Errorf("/violations/nonsense: status %d, want 400", code)
	}

	// Synthetic violator: register a kernel context, define a code pointer,
	// then check it against a corrupted value — the cfi policy must kill.
	pid := sys.Kernel().Register()
	v := sys.Verifier()
	v.Deliver(ipc.Message{Op: ipc.OpPointerDefine, PID: pid, Arg1: 0x40, Arg2: 0x1000, Seq: 1})
	v.Deliver(ipc.Message{Op: ipc.OpPointerCheck, PID: pid, Arg1: 0x40, Arg2: 0xbad, Seq: 2})

	code, body = get(t, base+"/violations")
	if code != http.StatusOK {
		t.Fatalf("/violations: status %d", code)
	}
	var idx []struct {
		PID             int32  `json:"pid"`
		Policy          string `json:"policy"`
		KillReason      string `json:"kill_reason"`
		Window          int    `json:"window"`
		FrozenUnixNanos int64  `json:"frozen_unix_nanos"`
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatalf("/violations: bad JSON: %v\n%s", err, body)
	}
	if len(idx) != 1 || idx[0].PID != pid {
		t.Fatalf("/violations rows = %+v, want one row for pid %d", idx, pid)
	}
	if idx[0].Policy != "cfi" {
		t.Errorf("index policy = %q, want cfi", idx[0].Policy)
	}
	if idx[0].KillReason == "" || idx[0].Window == 0 || idx[0].FrozenUnixNanos == 0 {
		t.Errorf("index row incomplete: %+v", idx[0])
	}

	code, body = get(t, fmt.Sprintf("%s/violations/%d", base, pid))
	if code != http.StatusOK {
		t.Fatalf("/violations/%d: status %d", pid, code)
	}
	var rep struct {
		PID        int32  `json:"pid"`
		Policy     string `json:"policy"`
		KillReason string `json:"kill_reason"`
		State      string `json:"state"`
		Window     []struct {
			Kind string `json:"kind"`
			Code string `json:"code"`
			Op   string `json:"op,omitempty"`
		} `json:"window"`
		Decisions []struct {
			Policy string `json:"policy"`
			Fatal  bool   `json:"fatal"`
		} `json:"decisions"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/violations/%d: bad JSON: %v\n%s", pid, err, body)
	}
	if rep.PID != pid || rep.Policy != "cfi" || rep.KillReason == "" {
		t.Errorf("report header = pid=%d policy=%q reason=%q", rep.PID, rep.Policy, rep.KillReason)
	}
	if rep.State != "killed" {
		t.Errorf("report state = %q, want killed", rep.State)
	}
	if len(rep.Window) == 0 {
		t.Errorf("report window empty:\n%s", body)
	}
	fatal := false
	for _, d := range rep.Decisions {
		if d.Fatal && d.Policy == "cfi" {
			fatal = true
		}
	}
	if !fatal {
		t.Errorf("no fatal cfi decision in trail: %+v", rep.Decisions)
	}

	// The kill must surface on /metrics as an attributed violation counter,
	// and a policy violation is not a poison.
	code, body = get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	samples := checkExposition(t, body)
	if got := samples[`herqules_violations_total{policy="cfi"}`]; got != 1 {
		t.Errorf(`herqules_violations_total{policy="cfi"} = %v, want 1`, got)
	}
	if got := samples["herqules_verifier_poisoned_total"]; got != 0 {
		t.Errorf("herqules_verifier_poisoned_total = %v, want 0", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
