package supervisor

import (
	"sync"
	"time"

	"herqules/internal/dsched"
	"herqules/internal/ipc"
	"herqules/internal/vm"
)

// This file is the one lifecycle every monitored process follows in a
// System (the paper's Figure 1: register, verify, tear down at exit): Admit
// takes it in, a local VM (Launch) or a plane that owns its message source
// (internal/hqnet, the benchmark's rings) feeds it, and finish finalizes it.
// Whichever way its messages arrive, a process is counted by Shutdown,
// visible in ProcStats/Health/metrics and retained in forensics alike.

// Proc is the handle to one monitored process in a System. A launched
// process finalizes itself when its program returns, and Wait collects the
// outcome. An admitted process is finalized by Close, after the admitting
// plane has closed its message source.
type Proc struct {
	sys     *System
	rec     *procRecord
	drained <-chan struct{} // closes once Pump has delivered the source; nil without one
	key     ipc.MacKey
	keyed   bool
	once    sync.Once // claimed by Launch's run goroutine, or by Close
	done    chan struct{}
	out     *Outcome // set before done closes; nil for an admitted process
}

// PID returns the kernel process identifier.
func (p *Proc) PID() int32 { return p.rec.pid }

// Key returns the MAC key the kernel programmed for this process at
// registration, when the System runs an authenticated policy set. Launch
// seals the process's sender under it; the networked plane delivers it to
// the client during the handshake — modeling the trusted kernel→process key
// provisioning path — so ipc.SealSender on the far side seals under the key
// the verifier's hmac policy will check.
func (p *Proc) Key() (ipc.MacKey, bool) { return p.key, p.keyed }

// Done returns a channel closed when the process has been finalized.
func (p *Proc) Done() <-chan struct{} { return p.done }

// Wait blocks until the process is finalized and returns its outcome (nil
// for an admitted process, which runs no program here). It is safe to call
// from multiple goroutines and repeatedly; every call returns the same
// outcome.
func (p *Proc) Wait() (*Outcome, error) {
	<-p.done
	return p.out, nil
}

// Close finalizes an admitted process; the caller must already have closed
// the sending side of its source. On a launched process Close finalizes
// nothing itself: it waits for the run to end. Idempotent; concurrent calls
// all return once the process is finalized.
func (p *Proc) Close() {
	p.once.Do(func() { p.finish(nil) })
	<-p.done
}

// Admit takes a process into the System: it takes a Shutdown in-flight slot,
// registers a kernel context, starts the process's one drain goroutine
// (verifier.Pump over recv; a nil recv means inline delivery: no source, no
// drain), and opens the process's attribution record. The returned process
// must be finalized, on every path: by Close once recv's sending side is
// closed, or by Launch's run.
func (s *System) Admit(recv ipc.Receiver) (*Proc, error) {
	// The inflight count is raised under the lock Shutdown takes to flip
	// down, so no admission slips past a closing system.
	s.mu.Lock()
	if s.down {
		s.mu.Unlock()
		return nil, ErrShutdown
	}
	s.inflight.Add(1)
	s.launched++
	s.mu.Unlock()
	// Interleaving point: admitted (Shutdown will wait for us) but no kernel
	// context yet.
	dsched.Yield(dsched.PointLaunchAdmitted, 0)

	pid := s.k.Register()
	p := &Proc{
		sys:  s,
		rec:  &procRecord{pid: pid, started: time.Now().UnixNano()},
		done: make(chan struct{}),
	}
	if recv != nil {
		drained := make(chan struct{})
		p.drained = drained
		s.drains.Add(1)
		go func() {
			s.v.Pump(recv)
			s.drains.Add(-1)
			close(drained)
		}()
	}
	if s.keys != nil {
		p.key, p.keyed = s.keys.Key(pid)
	}
	s.mu.Lock()
	s.records[pid] = p.rec
	s.mu.Unlock()
	return p, nil
}

// abort unwinds the admission of a process that never ran: its drain (if
// any) is waited out, its kernel context exited, and it leaves the
// accounting as if it had never been admitted.
func (p *Proc) abort() {
	s := p.sys
	if p.drained != nil {
		<-p.drained
	}
	s.k.Exit(p.rec.pid)
	s.mu.Lock()
	s.launched--
	delete(s.records, p.rec.pid)
	s.mu.Unlock()
	s.inflight.Done()
}

// finish finalizes the process: it waits for the pump to deliver every
// message from the source, folds a kernel kill that landed after the last
// instruction into the row and into res, freezes the attribution row, the
// outcome and the kill postmortem while the verifier and kernel contexts are
// still alive, tears the kernel context down, and releases the admission
// slot. res is the program's result for a launched process, nil for an
// admitted one.
func (p *Proc) finish(res *vm.Result) {
	s, pid := p.sys, p.rec.pid
	defer s.inflight.Done()
	if p.drained != nil {
		<-p.drained
	}

	row, _ := s.liveProcStats(p.rec) // both contexts live until Exit below
	if res != nil {
		if row.State == stateKilled && !res.Killed {
			res.Killed, res.KillReason = true, row.KillReason
		} else if res.Killed && row.State != stateKilled {
			row.State, row.KillReason = stateKilled, res.KillReason
		}
		p.out = &Outcome{
			Result:            res,
			PolicyViolations:  s.v.Violations(pid),
			MessagesProcessed: s.v.Messages(pid),
			PID:               pid,
		}
		p.out.Entries, p.out.MaxEntries = s.v.Entries(pid)
	}
	if row.State != stateKilled {
		row.State = stateExited
	}
	row.FinishedUnixNanos = time.Now().UnixNano()

	// Retain the kill postmortem (if one was frozen) before Exit tears the
	// verifier context — and the report hanging off it — down.
	var forensic *ForensicReport
	if fr, ok := s.forensicsLive(pid, p.rec.started); ok {
		fr.State = row.State
		fr.FinishedUnixNanos = row.FinishedUnixNanos
		forensic = &fr
	}

	// The row and the postmortem are published before Exit tears the live
	// sources down: a scrape that finds a context gone reads these instead.
	s.mu.Lock()
	p.rec.final, p.rec.forensic = &row, forensic
	s.mu.Unlock()

	// Interleaving point: the source is fully drained and the outcome
	// frozen, but the kernel context still exists.
	dsched.Yield(dsched.PointProcFinished, pid)
	s.k.Exit(pid)

	s.mu.Lock()
	s.finished++
	if row.State == stateKilled {
		s.killed++
	}
	s.doneFIFO = append(s.doneFIFO, pid)
	for len(s.doneFIFO) > maxProcRecords {
		delete(s.records, s.doneFIFO[0])
		s.doneFIFO = s.doneFIFO[1:]
	}
	s.mu.Unlock()
	close(p.done)
}
