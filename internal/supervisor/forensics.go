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

// forensicsLive assembles a report for a pid whose verifier context is still
// alive. started is the launch timestamp (0 for processes the supervisor did
// not launch, e.g. contexts registered directly against the kernel). Each
// source takes its own lock; s.mu must NOT be held.
func (s *System) forensicsLive(pid int32, started int64) (ForensicReport, bool) {
	vr, ok := s.v.Forensics(pid)
	if !ok {
		return ForensicReport{}, false
	}
	fr := ForensicReport{
		ForensicReport:   *vr,
		State:            stateKilled,
		DegradedPolicy:   s.k.DegradedMode().String(),
		StartedUnixNanos: started,
	}
	if ks, ok := s.k.Stats(pid); ok {
		fr.Syscalls = ks.Syscalls
		fr.SyncStalls = ks.SyncStalls
		fr.DegradedAllows = ks.DegradedAllows
	}
	return fr, true
}

// Forensics returns the kill postmortem for pid: the retained copy frozen at
// process teardown when the process was launched through this System, or a
// live assembly for a context that still exists (a kill observed before
// teardown, or a pid registered directly against the kernel). ok is false
// when pid was never killed with the flight recorder armed, or its report
// has been evicted by bounded retention.
func (s *System) Forensics(pid int32) (ForensicReport, bool) {
	var started int64
	s.mu.Lock()
	if rec, ok := s.records[pid]; ok {
		if rec.forensic != nil {
			fr := *rec.forensic
			s.mu.Unlock()
			return fr, true
		}
		started = rec.started
	}
	s.mu.Unlock()
	return s.forensicsLive(pid, started)
}

// AllForensics returns every available kill postmortem — retained and live —
// ascending by PID. Retention is bounded with the ProcStats rows: evicting a
// finished process's record drops its report too.
func (s *System) AllForensics() []ForensicReport {
	seen := make(map[int32]bool)
	var out []ForensicReport
	s.mu.Lock()
	for pid, rec := range s.records {
		if rec.forensic != nil {
			out = append(out, *rec.forensic)
			seen[pid] = true
		}
	}
	s.mu.Unlock()
	for _, vr := range s.v.AllForensics() {
		if seen[vr.PID] {
			continue
		}
		if fr, ok := s.Forensics(vr.PID); ok {
			out = append(out, fr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}
