package supervisor

import (
	"sort"

	"herqules/internal/verifier"
)

// This file is the supervisor's side of the violation-forensics layer: it
// wraps the verifier's frozen postmortems with kernel- and lifecycle-level
// context and retains them past process teardown (the verifier context — and
// the report hanging off it — dies at ProcessExited, but an operator asks
// "why was PID 12345 killed?" long after).

// ForensicReport is the full postmortem served by System.Forensics and the
// /violations endpoint: the verifier's frozen black box (attributed policy,
// last-N message window, decision trail, poison state) plus the kernel's
// syscall-gate figures and the supervisor's lifecycle context. The embedded
// report's fields flatten into the JSON document.
type ForensicReport struct {
	verifier.ForensicReport

	State string `json:"state"` // "killed", or "running" if scraped pre-teardown mid-kill

	// Kernel-side context at the time the report was assembled.
	Syscalls       uint64 `json:"syscalls,omitempty"`
	SyncStalls     uint64 `json:"sync_stalls,omitempty"`
	DegradedAllows uint64 `json:"degraded_allows,omitempty"`
	DegradedPolicy string `json:"degraded_policy"`

	StartedUnixNanos  int64 `json:"started_unix_nanos,omitempty"`
	FinishedUnixNanos int64 `json:"finished_unix_nanos,omitempty"`
}

// forensicsLive assembles a report for a pid whose kernel and verifier
// contexts are both still alive; started is its admission timestamp. Neither
// source waits on the process's context lock; s.mu must NOT be held.
func (s *System) forensicsLive(pid int32, started int64) (ForensicReport, bool) {
	vr, ok := s.v.Forensics(pid)
	if !ok {
		return ForensicReport{}, false
	}
	ks, ok := s.k.Stats(pid)
	if !ok {
		return ForensicReport{}, false
	}
	fr := ForensicReport{
		ForensicReport:   *vr,
		State:            stateKilled,
		DegradedPolicy:   s.k.DegradedMode().String(),
		StartedUnixNanos: started,
		Syscalls:         ks.Syscalls,
		SyncStalls:       ks.SyncStalls,
		DegradedAllows:   ks.DegradedAllows,
	}
	return fr, true
}

// Forensics returns the kill postmortem for a process this System admitted:
// the retained copy frozen at teardown, or a live assembly while the process
// is still running (a kill observed before teardown). ok is false when pid
// was never killed, was never admitted here, or its report has been evicted
// by bounded retention.
func (s *System) Forensics(pid int32) (ForensicReport, bool) {
	s.mu.Lock()
	rec, ok := s.records[pid]
	s.mu.Unlock()
	if !ok {
		return ForensicReport{}, false
	}
	return s.forensics(rec)
}

// forensics is rec's report: a live assembly while rec runs, the retained
// copy once it is finalized (Proc.finish publishes it before Exit). s.mu must
// NOT be held.
func (s *System) forensics(rec *procRecord) (ForensicReport, bool) {
	s.mu.Lock()
	final := rec.final != nil
	s.mu.Unlock()
	if !final {
		if fr, ok := s.forensicsLive(rec.pid, rec.started); ok {
			return fr, true
		}
	}
	// Finalized, before the live read or during it.
	s.mu.Lock()
	fr := rec.forensic
	s.mu.Unlock()
	if fr == nil {
		return ForensicReport{}, false
	}
	return *fr, true
}

// AllForensics returns every kill postmortem of the processes this System
// admitted — retained and live — ascending by PID. Retention is bounded with
// the ProcStats rows: evicting a finished process's record drops its report
// too.
func (s *System) AllForensics() []ForensicReport {
	s.mu.Lock()
	recs := make([]*procRecord, 0, len(s.records))
	for _, rec := range s.records {
		recs = append(recs, rec)
	}
	s.mu.Unlock()
	var out []ForensicReport
	for _, rec := range recs {
		if fr, ok := s.forensics(rec); ok {
			out = append(out, fr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}
