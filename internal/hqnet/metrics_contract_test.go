package hqnet

import (
	"bufio"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/obs"
	"herqules/internal/policy"
	"herqules/internal/supervisor"
	"herqules/internal/telemetry"
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

// TestMetricsFamiliesMatchDesign holds /metrics to its contract on a daemon
// wired like hqd (hqd's policy set, metrics, flight recorder, kills,
// CheckSeq, the connection plane's series): a session sends, passes a gate,
// is killed by a violation and ends, and /metrics is scraped while it is
// live, after the kill and after it ends. Every family served must be one
// DESIGN.md lists, with the listed type, and every family listed must be
// served in one of the scrapes.
func TestMetricsFamiliesMatchDesign(t *testing.T) {
	factory, err := policy.SetFactory(append(append([]string{}, policy.DefaultSet...), "hmac")...)
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.New(0)
	h := newHarness(t,
		supervisor.Config{Policies: factory, KillOnViolation: true, CheckSeq: true, Metrics: m, FlightRecorder: 256},
		Config{Lease: 2 * time.Second, Metrics: m})
	o := obs.NewServer(h.sys)
	o.SetConnReporter(h.srv)
	served := map[string]string{}
	typeLine := regexp.MustCompile(`^# TYPE (\S+) (\S+)$`)
	scrape := func() {
		rec := httptest.NewRecorder()
		o.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if m := typeLine.FindStringSubmatch(line); m != nil {
				served[m[1]] = m[2]
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
}
