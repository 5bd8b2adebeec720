package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"herqules/internal/hqnet"
	"herqules/internal/ipc"
	"herqules/internal/supervisor"
)

// stream is a seeded source of blocks: blockMsgs messages for the streaming
// workloads, requestMsgs for the gate ladder.
type stream interface{ next() []ipc.Message }

// session is one monitored process as the generator drives it: a sender for
// its messages, the gate its system calls wait at, and the stream it plays.
type session struct {
	pid   int32
	send  ipc.Sender   // sealed when the system runs hmac
	raw   ipc.Sender   // the channel underneath the sealer
	gate  func() error // SyscallEnter for this pid
	gen   stream
	close func()
	req   uint64 // blocks sent so far (span request id)
}

// syscallMsg is the synchronization message that precedes every gate.
func (s *session) syscallMsg() ipc.Message { return ipc.Message{Op: ipc.OpSyscall, PID: s.pid} }

// dialSession opens an hqnet session to d. wrap, when non-nil, wraps the
// connection (the traced run's byte and call counter).
func dialSession(d daemon, wrap func(net.Conn) net.Conn) (*session, error) {
	network, address := d.addr()
	c, err := hqnet.Dial(context.Background(), hqnet.ClientConfig{Network: network, Addr: address, WrapConn: wrap})
	if err != nil {
		return nil, fmt.Errorf("bench: dial %s %s: %w", network, address, err)
	}
	return &session{
		pid:   c.PID(),
		send:  c.Sender(),
		raw:   c,
		gate:  func() error { return c.SyscallEnter(c.PID(), 0) },
		close: func() { c.Close() },
	}, nil
}

// ringSlots is the SharedRing capacity of the local workloads.
const ringSlots = 1 << 12

// admitRing admits a local process on a fresh SharedRing, sealing its sender
// when the system programmed a key for it.
func admitRing(sys *supervisor.System) (*session, error) {
	ch := ipc.NewSharedRing(ringSlots)
	r, err := sys.Admit(ch.Receiver)
	if err != nil {
		return nil, fmt.Errorf("bench: admit: %w", err)
	}
	pid := r.PID()
	s := &session{
		pid:  pid,
		send: ch.Sender,
		raw:  ch.Sender,
		gate: func() error { return sys.Kernel().SyscallEnter(pid, 0) },
		close: func() {
			ch.Sender.Close()
			r.Close()
		},
	}
	if key, ok := r.Key(); ok {
		s.send = ipc.SealSender(ch.Sender, key)
	}
	return s, nil
}

// repStats is what one closed-loop rep measured.
type repStats struct {
	wall        time.Duration // first send → last gate verdict, across sessions
	msgs        uint64        // messages put on the channels (data + OpSyscall)
	gates       uint64
	sendErrs    uint64
	gateRefused uint64
	blockUs     []float64 // one per block: block due (previous verdict in) → its own verdict
	gateWaitUs  []float64 // one per block: OpSyscall sent → verdict
	firstErr    error
}

func (r *repStats) merge(o repStats) {
	r.msgs += o.msgs
	r.gates += o.gates
	r.sendErrs += o.sendErrs
	r.gateRefused += o.gateRefused
	r.blockUs = append(r.blockUs, o.blockUs...)
	r.gateWaitUs = append(r.gateWaitUs, o.gateWaitUs...)
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// note counts one failed operation and keeps the first error for the report.
func (r *repStats) note(counter *uint64, err error) {
	if err == nil {
		return
	}
	*counter++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// sendBlock puts one block and its OpSyscall on the session's channel.
func (s *session) sendBlock(blk []ipc.Message, st *repStats) {
	for i := range blk {
		st.note(&st.sendErrs, s.send.Send(blk[i]))
	}
	st.note(&st.sendErrs, s.send.Send(s.syscallMsg()))
	st.msgs += uint64(len(blk)) + 1
}

// enterGate waits at the session's gate and counts a refusal.
func (s *session) enterGate(st *repStats) {
	st.gates++
	st.note(&st.gateRefused, s.gate())
}

// runStreamRep drives every session through blocks blocks, closed loop and
// saturating: each session sends its next block the moment the previous
// gate releases it. All sessions start together.
func runStreamRep(workload string, sessions []*session, blocks int, tr *tracer) repStats {
	per := make([]repStats, len(sessions))
	ends := make([]time.Time, len(sessions))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			st := &per[i]
			st.blockUs = make([]float64, 0, blocks)
			st.gateWaitUs = make([]float64, 0, blocks)
			strace := tr.session(workload, i, s.req, blocks)
			<-start
			for b := 0; b < blocks; b++ {
				// In a closed loop a block is due the moment the previous
				// verdict is in, which is now.
				bt := blockTimes{gen: time.Now()}
				blk := s.gen.next()
				bt.send = time.Now()
				s.sendBlock(blk, st)
				bt.sent = time.Now()
				s.enterGate(st)
				bt.done = time.Now()
				st.blockUs = append(st.blockUs, float64(bt.done.Sub(bt.gen))/1e3)
				st.gateWaitUs = append(st.gateWaitUs, float64(bt.done.Sub(bt.sent))/1e3)
				strace.block(bt)
			}
			ends[i] = time.Now()
			s.req += uint64(blocks)
			strace.flush()
		}(i, s)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	var out repStats
	for i := range per {
		out.merge(per[i])
		if d := ends[i].Sub(t0); d > out.wall {
			out.wall = d
		}
	}
	return out
}

// rungStats is what one rung of the open-loop ladder measured.
type rungStats struct {
	repStats
	rate      int
	scheduled int
	completed int       // requests whose gate returned a clean verdict
	latUs     []float64 // due time → verdict, all sessions
	lateUs    []float64 // due time → generator began sending (its own lateness)
	firstQ    []float64 // latUs of each session's first quarter of the schedule
	lastQ     []float64 // latUs of each session's last quarter
}

// spinWindow is how close to a due time the generator stops sleeping and
// spins: nanosleep wake-ups overshoot by tens of microseconds, so the last
// stretch is busy-waited and whatever lateness remains is reported.
const spinWindow = 50 * time.Microsecond

func waitUntil(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			preciseSleep(d - spinWindow)
		}
	}
}

// runGateRung issues n requests per session on a seeded Poisson schedule at
// rate requests/s/session, open loop: a request is due at its scheduled time
// whether or not the previous one has finished, and its latency runs from
// that due time to the gate verdict. A session has one gate outstanding at a
// time (a process is single-threaded through its system calls), so a slow
// verdict delays the requests behind it — and that delay is counted.
// onGate, when non-nil, runs just before every gate (the traced run's queue
// depth probe).
func runGateRung(workload string, sessions []*session, seed uint64, rate, n int, tr *tracer, onGate func()) rungStats {
	type perSession struct {
		repStats
		lat, late []float64
		completed int
	}
	per := make([]perSession, len(sessions))
	scheds := make([][]time.Duration, len(sessions))
	for i := range sessions {
		scheds[i] = poissonSchedule(seed+uint64(i)*0x9e37, rate, n)
	}
	ends := make([]time.Time, len(sessions))
	t0 := time.Now().Add(2 * time.Millisecond) // rung epoch, after the goroutines are up
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			p := &per[i]
			p.lat = make([]float64, 0, n)
			p.late = make([]float64, 0, n)
			strace := tr.session(workload, i, s.req, n)
			for _, off := range scheds[i] {
				due := t0.Add(off)
				waitUntil(due)
				bt := blockTimes{gen: due}
				blk := s.gen.next()
				bt.send = time.Now()
				errsBefore := p.sendErrs + p.gateRefused
				s.sendBlock(blk, &p.repStats)
				bt.sent = time.Now()
				if onGate != nil {
					onGate()
				}
				s.enterGate(&p.repStats)
				bt.done = time.Now()
				p.late = append(p.late, float64(bt.send.Sub(due))/1e3)
				p.lat = append(p.lat, float64(bt.done.Sub(due))/1e3)
				if p.sendErrs+p.gateRefused == errsBefore {
					p.completed++
				}
				strace.block(bt)
			}
			ends[i] = time.Now()
			s.req += uint64(n)
			strace.flush()
		}(i, s)
	}
	wg.Wait()
	out := rungStats{rate: rate, scheduled: n * len(sessions)}
	q := n / 4
	for i := range per {
		out.merge(per[i].repStats)
		out.completed += per[i].completed
		out.latUs = append(out.latUs, per[i].lat...)
		out.lateUs = append(out.lateUs, per[i].late...)
		out.firstQ = append(out.firstQ, per[i].lat[:q]...)
		out.lastQ = append(out.lastQ, per[i].lat[n-q:]...)
		if d := ends[i].Sub(t0); d > out.wall {
			out.wall = d
		}
	}
	return out
}

// Latency limits of the ladder: a rung is sustained when at least 99 % of
// its scheduled requests completed, the backlog did not grow (the median of
// the last quarter of the schedule is at most twice that of the first), and
// the median stayed within 5 ms.
const (
	sustainCompleted = 0.99
	sustainGrowth    = 2.0
	sustainP50Us     = 5000.0
)

func (r rungStats) sustained() bool {
	if float64(r.completed) < sustainCompleted*float64(r.scheduled) || len(r.latUs) == 0 {
		return false
	}
	return median(r.lastQ) <= sustainGrowth*median(r.firstQ) && median(r.latUs) <= sustainP50Us
}
