package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"herqules/internal/hqnet"
	"herqules/internal/policy"
	"herqules/internal/supervisor"
	"herqules/internal/telemetry"
)

// hqdPolicies is hqd's default -policies value: the registry default set
// plus hmac.
func hqdPolicies() []string {
	return append(append([]string{}, policy.DefaultSet...), "hmac")
}

// hqdConfig is supervisor.Config set to the values hqd's flag defaults
// produce, over the given policy set: CheckSeq on, kills on, a 256-slot
// flight recorder, metrics wired, GOMAXPROCS shards, default epoch.
func hqdConfig(policies []string) (supervisor.Config, error) {
	factory, err := policy.SetFactory(policies...)
	if err != nil {
		return supervisor.Config{}, err
	}
	return supervisor.Config{
		Policies:        factory,
		KillOnViolation: true,
		CheckSeq:        true,
		Metrics:         telemetry.New(0),
		FlightRecorder:  256,
	}, nil
}

// counters is the enforcement state the correctness checks difference
// around the timed reps.
type counters struct {
	Verified   uint64
	Killed     uint64
	Violations map[string]uint64
}

func countersOf(st supervisor.Stats) counters {
	return counters{Verified: st.MessagesVerified, Killed: st.Killed, Violations: st.ViolationsByPolicy}
}

// daemon is the system under test as the network workloads see it: an
// address to dial, enforcement counters, and resource usage. The untraced
// workloads run against an hqd child process; the traced run hosts the same
// server in-process so both sides of the wire are reachable.
type daemon interface {
	addr() (network, address string)
	counters() (counters, error)
	cpu() time.Duration      // CPU of a separate daemon process; 0 when in-process
	rssMB() (float64, error) // high-water mark of a daemon process; current resident set when in-process
	stop() error
}

// layout locates the directories the benchmark uses. Everything it writes
// stays inside the checkout: build products and sockets under .bench_build,
// reports under bench/out.
type layout struct {
	root  string // module root (holds go.mod)
	build string
	out   string
}

func findLayout() (layout, error) {
	dir, err := os.Getwd()
	if err != nil {
		return layout{}, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "hqd")); err == nil {
				break
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return layout{}, errors.New("bench: run from inside the herqules module (no go.mod with cmd/hqd above the working directory)")
		}
		dir = parent
	}
	l := layout{root: dir, build: filepath.Join(dir, ".bench_build"), out: filepath.Join(dir, "bench", "out")}
	for _, d := range []string{l.build, l.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return layout{}, err
		}
	}
	return l, nil
}

// sockPath returns a fresh Unix-socket path under the build directory,
// relative to the working directory when that is shorter (sun_path holds
// only 108 bytes and a checkout may sit under a long prefix).
func (l layout) sockPath(tag string) string {
	abs := filepath.Join(l.build, fmt.Sprintf("%s-%d.sock", tag, os.Getpid()))
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, abs); err == nil && len(rel) < len(abs) {
			return rel
		}
	}
	return abs
}

// hqdChild is a running cmd/hqd built from this checkout.
type hqdChild struct {
	cmd    *exec.Cmd
	bin    string
	sock   string
	http   string
	stderr bytes.Buffer
}

// startHQD builds cmd/hqd into the build directory and starts it the way an
// operator would: Unix listener only, observability on a free loopback port,
// every other flag at its default.
func startHQD(l layout) (*hqdChild, error) {
	h := &hqdChild{
		bin:  filepath.Join(l.build, fmt.Sprintf("hqd-%d", os.Getpid())),
		sock: l.sockPath("hqd"),
	}
	build := exec.Command("go", "build", "-o", h.bin, "./cmd/hqd")
	build.Dir = l.root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("bench: build hqd: %v\n%s", err, out)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.Remove(h.bin)
		return nil, err
	}
	h.http = ln.Addr().String()
	ln.Close()
	os.Remove(h.sock)

	h.cmd = exec.Command(h.bin, "-tcp", "", "-unix", h.sock, "-http", h.http)
	h.cmd.Stderr = &h.stderr
	dieWithParent(h.cmd)
	if err := h.cmd.Start(); err != nil {
		os.Remove(h.bin)
		return nil, fmt.Errorf("bench: start hqd: %w", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := h.counters(); err == nil {
			if _, err := os.Stat(h.sock); err == nil {
				return h, nil
			}
		}
		if time.Now().After(deadline) {
			_ = h.stop()
			return nil, fmt.Errorf("bench: hqd not ready after 10s\n%s", h.stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (h *hqdChild) addr() (string, string) { return "unix", h.sock }

func (h *hqdChild) cpu() time.Duration {
	d, _ := procCPU(h.cmd.Process.Pid)
	return d
}

func (h *hqdChild) rssMB() (float64, error) { return peakRSSMB(h.cmd.Process.Pid) }

// counters scrapes /metrics for the totals the checks need.
func (h *hqdChild) counters() (counters, error) {
	c := counters{Violations: map[string]uint64{}}
	resp, err := http.Get("http://" + h.http + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("bench: /metrics: %s", resp.Status)
	}
	seen := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			continue
		}
		switch {
		case name == "herqules_messages_verified_total":
			c.Verified = n
			seen++
		case name == "herqules_procs_killed_total":
			c.Killed = n
			seen++
		case strings.HasPrefix(name, `herqules_violations_total{policy="`):
			pol := strings.TrimSuffix(strings.TrimPrefix(name, `herqules_violations_total{policy="`), `"}`)
			c.Violations[pol] = n
		}
	}
	if err := sc.Err(); err != nil {
		return c, err
	}
	if seen != 2 {
		return c, errors.New("bench: /metrics lacks the verified/killed totals")
	}
	return c, nil
}

// stop ends the child — SIGTERM, then SIGKILL after a grace period — waits
// for it, and removes its socket and binary.
func (h *hqdChild) stop() error {
	defer os.Remove(h.bin)
	defer os.Remove(h.sock)
	if h.cmd == nil || h.cmd.Process == nil {
		return nil
	}
	_ = h.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- h.cmd.Wait() }()
	select {
	case err := <-done:
		var ee *exec.ExitError
		if err != nil && !errors.As(err, &ee) {
			return err
		}
		return nil
	case <-time.After(5 * time.Second):
		_ = h.cmd.Process.Kill()
		<-done
		return errors.New("bench: hqd ignored SIGTERM for 5s; killed")
	}
}

// localDaemon hosts hqnet.NewServer over a supervisor.System in this
// process, so the traced run can reach both sides of the wire.
type localDaemon struct {
	sys     *supervisor.System
	srv     *hqnet.Server
	network string
	address string
}

// startLocal serves sys on a Unix socket (network "unix") or a loopback TCP
// port (network "tcp"). The daemon owns sys from here on: stop shuts it down.
func startLocal(l layout, sys *supervisor.System, m *telemetry.Metrics, network string) (*localDaemon, error) {
	srv := hqnet.NewServer(hqnet.Config{Sys: sys, Metrics: m})
	address := "127.0.0.1:0"
	if network == "unix" {
		address = l.sockPath("local")
		os.Remove(address)
	}
	d := &localDaemon{sys: sys, srv: srv, network: network, address: address}
	ln, err := srv.Listen(network, address)
	if err != nil {
		_ = d.stop()
		return nil, err
	}
	if network == "tcp" {
		d.address = ln.Addr().String()
	}
	return d, nil
}

func (d *localDaemon) addr() (string, string)      { return d.network, d.address }
func (d *localDaemon) counters() (counters, error) { return countersOf(d.sys.Stats()), nil }
func (d *localDaemon) cpu() time.Duration          { return 0 }
func (d *localDaemon) rssMB() (float64, error)     { return selfRSSMB() }

// queueDepth is the sum of the sessions' reader→pump queue depths right now.
func (d *localDaemon) queueDepth() int {
	depth := 0
	for _, row := range d.srv.Conns() {
		depth += row.QueueDepth
	}
	return depth
}

func (d *localDaemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if d.network == "unix" {
		os.Remove(d.address)
	}
	return err
}
