// Package obs is the live observability plane for a resident HerQules
// system: a small HTTP server exposing the telemetry registry as Prometheus
// text exposition, per-PID attribution and kill postmortems as JSON, a
// liveness probe, and the Go runtime profiler.
//
// The paper evaluates HerQules as a resident service (one verifier process
// multiplexing every enforced application, §4); operating such a service
// requires answering "is the verifier keeping up, and for which process is
// it not?" without stopping it. The endpoints here serve exactly that: the
// drains' pump-stall distribution (utilisation = 1 − Σ stall ÷ wall), per-PID
// syscall-gate stalls and, for a killed process, the flight window that led
// up to the kill, all read from live state without pausing any drain.
//
// The package sits strictly above supervisor and telemetry — nothing in the
// enforcement path imports it, and a System built without WithHTTPAddr never
// constructs it.
package obs

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"

	"herqules/internal/supervisor"
)

// System is the slice of supervisor.System the observability plane reads.
// It is an interface so tests can serve synthetic stats and so obs never
// reaches into supervisor internals.
type System interface {
	// Stats returns the aggregate + per-PID snapshot (supervisor.Stats).
	Stats() supervisor.Stats
	// Health returns the liveness summary.
	Health() supervisor.Health
	// Forensics returns the kill postmortem for pid, when one exists.
	Forensics(pid int32) (supervisor.ForensicReport, bool)
	// AllForensics returns every available kill postmortem, ascending by PID.
	AllForensics() []supervisor.ForensicReport
}

// ConnRow is one live connection-plane session as reported by a
// ConnReporter: the per-connection gauges on /metrics and the /conns listing
// are rendered from these rows.
type ConnRow struct {
	PID               int32  `json:"pid"`
	Tenant            uint64 `json:"tenant"`
	Connected         bool   `json:"connected"` // transport live (false = severed, awaiting resume)
	Resumes           uint64 `json:"resumes"`
	ForwardedSeq      uint64 `json:"forwarded_seq"` // cumulative ack high-water
	QueueDepth        int    `json:"queue_depth"`   // always 0: a session has no queue; kept for bench/, which reads it
	LastRecvUnixNanos int64  `json:"last_recv_unix_nanos"`
	LeaseNanos        int64  `json:"lease_nanos"`
}

// ConnReporter is implemented by the networked attestation plane
// (internal/hqnet's Server): one row per admitted session. obs stays
// decoupled — it defines the row shape, the connection plane fills it.
type ConnReporter interface {
	// Conns returns one row per live session.
	Conns() []ConnRow
}

// Server serves the observability endpoints for one System. Construct with
// NewServer, then either mount Handler into an existing mux or call Start to
// bind and serve on a dedicated listener.
type Server struct {
	sys   System
	conns ConnReporter // may be nil: no connection plane to report

	mu  sync.Mutex
	ln  net.Listener
	srv *http.Server
}

// NewServer builds a server over sys. The metric exposition reads
// sys.Stats(), which already carries the registry snapshot diffed to the
// system's own interval.
func NewServer(sys System) *Server {
	return &Server{sys: sys}
}

// SetConnReporter wires the connection plane into the exposition: /metrics
// gains per-connection gauges and /conns serves the row listing. Call before
// Handler/Start.
func (s *Server) SetConnReporter(r ConnReporter) { s.conns = r }

// Handler returns the endpoint mux:
//
//	/metrics          Prometheus text exposition (counters, histograms,
//	                  per-PID series, per-policy violations)
//	/healthz          liveness JSON; 200 while up, 503 once shutdown has begun
//	                  or a delivery-path panic has poisoned a process
//	/procs            per-PID attribution JSON (the Stats serialization)
//	/violations       kill-postmortem index (one summary per ForensicReport)
//	/violations/<pid> full ForensicReport JSON for one killed process
//	/debug/pprof/     Go runtime profiler
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/procs", s.handleProcs)
	mux.HandleFunc("/violations", s.handleViolations)
	mux.HandleFunc("/violations/", s.handleViolation)
	mux.HandleFunc("/conns", s.handleConns)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start binds addr (host:port; ":0" picks a free port — read it back with
// Addr) and serves the Handler on a background goroutine until Close. A bind
// failure is returned synchronously so a typo'd address surfaces at startup,
// not as a silently dead endpoint.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.ln, s.srv = ln, srv
	s.mu.Unlock()
	go func() {
		// ErrServerClosed is the normal Close path; anything else would
		// already have surfaced to a scraper as connection failures.
		_ = srv.Serve(ln)
	}()
	return nil
}

// Addr reports the bound listen address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and in-flight handlers. Safe to call without a
// prior Start, and idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.srv, s.ln = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	if err := srv.Close(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w, s.sys.Stats())
	if s.conns != nil {
		WriteConnMetrics(w, s.conns.Conns())
	}
}

// handleConns lists the connection plane's live sessions as JSON; an empty
// array when no connection plane is wired, so a fleet scraper needs no
// per-instance knowledge of which daemons serve remote sessions.
func (s *Server) handleConns(w http.ResponseWriter, _ *http.Request) {
	rows := []ConnRow{}
	if s.conns != nil {
		rows = s.conns.Conns()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rows)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := s.sys.Health()
	w.Header().Set("Content-Type", "application/json")
	// A poisoned verifier context means the verifier hit a bug in its own
	// delivery path — the probe reports it as unhealthy (503) just like
	// shutdown, so an orchestrator replaces the instance running suspect
	// code.
	if !h.Up || h.Degraded() {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(h)
}

func (s *Server) handleProcs(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The whole Stats value is the shared serialization path (its
	// MarshalJSON carries the per-PID rows); /procs is that document.
	_ = enc.Encode(s.sys.Stats())
}

// violationSummary is one row of the /violations index: enough to triage and
// build the per-PID link, without shipping every report's full window.
type violationSummary struct {
	PID             int32  `json:"pid"`
	Policy          string `json:"policy,omitempty"`
	KillReason      string `json:"kill_reason"`
	Window          int    `json:"window"` // retained flight records
	FrozenUnixNanos int64  `json:"frozen_unix_nanos"`
}

func (s *Server) handleViolations(w http.ResponseWriter, _ *http.Request) {
	reports := s.sys.AllForensics()
	idx := make([]violationSummary, len(reports))
	for i, r := range reports {
		idx[i] = violationSummary{
			PID:             r.PID,
			Policy:          r.Policy,
			KillReason:      r.KillReason,
			Window:          len(r.Window),
			FrozenUnixNanos: r.FrozenUnixNanos,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(idx)
}

func (s *Server) handleViolation(w http.ResponseWriter, r *http.Request) {
	raw := strings.TrimPrefix(r.URL.Path, "/violations/")
	pid64, err := strconv.ParseInt(raw, 10, 32)
	if err != nil || pid64 <= 0 {
		http.Error(w, "bad pid", http.StatusBadRequest)
		return
	}
	rep, ok := s.sys.Forensics(int32(pid64))
	if !ok {
		http.Error(w, "no forensic report for pid", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rep)
}
