package hqnet

import (
	"bufio"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/obs"
	"herqules/internal/policy"
	"herqules/internal/supervisor"
)

// designFamilies reads the metrics contract, DESIGN.md's table of every
// /metrics family: one row per family, "| `name` | type | unit | meaning |".
func designFamilies(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	row := regexp.MustCompile("^\\| `(herqules_[a-z0-9_]+)` \\| (counter|gauge|histogram) \\|")
	listed := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m := row.FindStringSubmatch(sc.Text()); m != nil {
			listed[m[1]] = m[2]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(listed) == 0 {
		t.Fatal("DESIGN.md lists no metric family")
	}
	return listed
}

// movingCounters are the counter families the contract test's session must
// move: a family that reads 0 after a session sent, passed a gate, was
// killed and ended shows nothing, served or not.
var movingCounters = []string{
	"herqules_messages_verified_total",
	"herqules_kernel_syscalls_total",
	"herqules_kernel_kills_total",
	"herqules_violations_total",
	"herqules_hqnet_sessions_admitted_total",
	"herqules_procs_launched_total",
	"herqules_procs_killed_total",
	"herqules_procs_finished_total",
}

// TestMetricsFamiliesMatchDesign holds /metrics to its contract on a daemon
// built as hqd builds it (hqd's policy set, kills, CheckSeq, the System's own
// registry and flight rings, the connection plane's series): a session
// sends, passes a gate, is killed by a violation and ends, and /metrics is
// scraped while it is live, after the kill and after it ends. Every family
// served must be one DESIGN.md lists, with the listed type, every family
// listed must be served in one of the scrapes, and every movingCounters
// family must read above 0 (summed over its labels) in the last.
func TestMetricsFamiliesMatchDesign(t *testing.T) {
	factory, err := policy.SetFactory(append(append([]string{}, policy.DefaultSet...), "hmac")...)
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t,
		supervisor.Config{Policies: factory, KillOnViolation: true, CheckSeq: true},
		Config{Lease: 2 * time.Second})
	o := obs.NewServer(h.sys)
	o.SetConnReporter(h.srv)
	served := map[string]string{}
	var last map[string]float64 // family -> sum of its samples in the last scrape
	typeLine := regexp.MustCompile(`^# TYPE (\S+) (\S+)$`)
	sample := regexp.MustCompile(`^([a-z0-9_]+)(?:\{[^}]*\})? (\S+)$`)
	scrape := func() {
		rec := httptest.NewRecorder()
		o.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		last = map[string]float64{}
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if m := typeLine.FindStringSubmatch(line); m != nil {
				served[m[1]] = m[2]
			} else if m := sample.FindStringSubmatch(line); m != nil {
				v, err := strconv.ParseFloat(m[2], 64)
				if err != nil {
					t.Fatalf("sample %q: %v", line, err)
				}
				last[m[1]] += v
			}
		}
	}

	c := h.dial(t, ClientConfig{})
	pid := c.PID()
	sender := c.Sender()
	for i := 0; i < 16; i++ {
		if err := sender.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sender.Send(ipc.Message{Op: ipc.OpSyscall, Arg1: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.SyscallEnter(pid, 1); err != nil {
		t.Fatalf("gate: %v (want pass)", err)
	}
	scrape()

	// A raw send on a keyed session carries no tag: the sealer rejects it.
	if err := c.Send(ipc.Message{Op: ipc.OpCounterInc, Arg1: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.SyscallEnter(pid, 2); err == nil {
		t.Fatal("gate passed behind an unsealed message")
	}
	waitFor(t, 5*time.Second, "kill", func() bool { killed, _ := h.killReason(pid); return killed })
	scrape()
	c.Close()
	waitFor(t, 5*time.Second, "session end", func() bool { return h.srv.Sessions() == 0 })
	scrape()

	listed := designFamilies(t)
	var names []string
	for name := range served {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		typ, ok := listed[name]
		switch {
		case !ok:
			t.Errorf("/metrics serves %s (%s), which DESIGN.md's metrics table does not list", name, served[name])
		case typ != served[name]:
			t.Errorf("%s is served as a %s, DESIGN.md lists a %s", name, served[name], typ)
		}
	}
	for name := range listed {
		if _, ok := served[name]; !ok {
			t.Errorf("DESIGN.md lists %s, which /metrics never served", name)
		}
	}
	for _, name := range movingCounters {
		if last[name] == 0 {
			t.Errorf("%s reads 0 after the session ended", name)
		}
	}
}
