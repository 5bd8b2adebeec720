package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/supervisor"
)

// spec is one workload. The names are final: later issues quote them.
type spec struct {
	name string
	why  string

	net      bool     // through hqnet to a daemon (else a local SharedRing)
	sessions int      // producers the generator drives at once
	ladder   bool     // open-loop gate ladder (else closed-loop streaming)
	policies []string // ring workloads' chain; net workloads run hqd's default
	// newStream builds session i's stream once its pid is known.
	newStream func(seed uint64, pid int32, quick bool) stream
	// blocksPerSec sizes a rep: blocks per session per second of
	// measurement at the seed commit on the seed machine. A rep sends a
	// fixed count derived from it, never a fixed duration, so message
	// counts repeat exactly.
	blocksPerSec float64
}

// Generator parallelism on the 2-core seed machine. A network workload drives
// one session per processor: the daemon is a process of its own. A ring
// workload hosts the system in this process, where every producer brings a
// drain loop and a shard worker with it, so it drives a single producer: two
// would put six spinning goroutines on two processors, and the block times
// then flip between a fast and a slow mode with the scheduler's placement
// (run-to-run spread of ring_policy's gate_p50_us 19-26 % against 7-18 % with one).
const (
	netSessions  = 2
	ringSessions = 1
)

// A run measures instances fresh systems one after another, repsPerInstance
// timed reps on each after one discarded warm-up rep, and reports the trimmed
// mean over all timedReps reps. Fresh systems matter: a system's speed depends on
// where its threads and tables happened to land, and that stays put for the
// system's life, so reps on one system share a bias that only another
// instance averages out. The set-ups double as the setup_s samples.
const (
	instances       = 5
	repsPerInstance = 5
	timedReps       = instances * repsPerInstance
)

var specs = []*spec{
	{
		name:     "net_stream",
		why:      "closed-loop saturating stream over the Unix socket to hqd: hqnet's per-frame write, queue hand-off and acks do nearly all the work, verifier and policy almost none",
		net:      true,
		sessions: netSessions,
		newStream: func(seed uint64, pid int32, _ bool) stream {
			return newHotMix(seed, pid, hotSlots, hotPeriod, blockMsgs)
		},
		blocksPerSec: 55,
	},
	{
		name:     "net_gate",
		why:      "open-loop Poisson gate requests at 1000-8000 req/s/session: the same hqnet layer used for round-trip wake-ups instead of bulk streaming, so a batching change that delays flushes shows here",
		net:      true,
		sessions: netSessions,
		ladder:   true,
		newStream: func(seed uint64, pid int32, _ bool) stream {
			return newHotMix(seed, pid, hotSlots, hotPeriod, requestMsgs)
		},
	},
	{
		name:     "ring_stream",
		why:      "closed-loop saturating stream over a local SharedRing with cfi,counter: ring, drain, routing and shard hand-off dominate and hqnet does nothing",
		sessions: ringSessions,
		policies: []string{"cfi", "counter"},
		newStream: func(seed uint64, pid int32, _ bool) stream {
			return newHotMix(seed, pid, hotSlots, hotPeriod, blockMsgs)
		},
		blocksPerSec: 3900,
	},
	{
		name:     "ring_policy",
		why:      "local ring with the full sealed chain over a 1M-entry working set: policy tables and MAC sealing dominate, ring and drain are a small share",
		sessions: ringSessions,
		policies: []string{"cfi", "memsafety", "counter", "dfi", "temporal", "hmac"},
		newStream: func(seed uint64, pid int32, quick bool) stream {
			sz := fullPolicySizes
			if quick {
				sz = quickPolicySizes
			}
			return newPolicyMix(seed, pid, sz)
		},
		blocksPerSec: 430,
	},
}

// policySet is the policy chain the workload's system runs.
func (sp *spec) policySet() []string {
	if sp.net {
		return hqdPolicies()
	}
	return sp.policies
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// options are the knobs of one run.
type options struct {
	seed    uint64
	seconds int
	quick   bool
}

// repBlocks is the fixed block count per session per rep.
func (sp *spec) repBlocks(o options) int {
	if o.quick {
		return 4
	}
	n := int(sp.blocksPerSec * float64(o.seconds) / timedReps)
	if n < 1 {
		n = 1
	}
	return n
}

// rungRequests is the fixed request count per session per rung per rep: the
// run's seconds are split evenly over reps and rungs.
func rungRequests(o options, rate int) int {
	n := rate * o.seconds / (timedReps * len(gateRungs))
	if o.quick || n < quickRequests {
		n = quickRequests
	}
	return n
}

// quickRequests is the smallest rung: -quick's size, and the warm-up's.
const quickRequests = 64

// env is a set-up system with its sessions connected and warmed up.
type env struct {
	sp       *spec
	sessions []*session
	sys      *supervisor.System // ring workloads, and the in-process daemon
	d        daemon             // net workloads
	policies []string           // the system's policy chain
}

func (e *env) counters() (counters, error) {
	if e.d != nil {
		return e.d.counters()
	}
	return countersOf(e.sys.Stats()), nil
}

// cpu is the CPU time consumed so far by everything the workload runs: this
// process plus the daemon child, when there is one.
func (e *env) cpu() time.Duration {
	if e.d != nil {
		return selfCPU() + e.d.cpu()
	}
	return selfCPU()
}

// rssMB is the memory of the system under test: the high-water mark of the
// hqd child for network workloads; for ring workloads the current resident
// set of this process, which also holds the generator and whatever earlier
// systems left uncollected — hence sampled at rep boundaries, not VmHWM.
func (e *env) rssMB() (float64, error) {
	if e.d != nil {
		return e.d.rssMB()
	}
	return selfRSSMB()
}

// newSession admits one more process into the system (the canaries).
func (e *env) newSession(wrap func(net.Conn) net.Conn) (*session, error) {
	if e.d != nil {
		return dialSession(e.d, wrap)
	}
	return admitRing(e.sys)
}

func (e *env) close() error {
	for _, s := range e.sessions {
		s.close()
	}
	e.sessions = nil
	if e.d != nil {
		return e.d.stop()
	}
	if e.sys != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return e.sys.Shutdown(ctx)
	}
	return nil
}

// setupOpts vary a set-up for the traced run; the zero value is the
// end-to-end configuration.
type setupOpts struct {
	local    bool                         // host the daemon in-process instead of starting hqd
	network  string                       // in-process daemon's transport: "unix" (default) or "tcp"
	policies []string                     // in-process system's policy set (default: the workload's)
	wrap     func(net.Conn) net.Conn      // wraps the sessions' connections
	tweak    func(cfg *supervisor.Config) // adjusts the in-process system away from hqd's defaults
	sessions int                          // default: the workload's
}

// setup brings a workload's system up to the first timed send: start the
// daemon (building hqd first) or the local system, connect the sessions,
// generate their streams, build the working set, run the warm-up rep.
func setup(sp *spec, o options, l layout, so setupOpts) (e *env, err error) {
	if so.policies == nil {
		so.policies = sp.policySet()
	}
	if so.network == "" {
		so.network = "unix"
	}
	if so.sessions == 0 {
		so.sessions = sp.sessions
	}
	e = &env{sp: sp, policies: so.policies}
	defer func() {
		if err != nil {
			_ = e.close()
			e = nil
		}
	}()
	switch {
	case sp.net && !so.local:
		h, err := startHQD(l)
		if err != nil {
			return e, err
		}
		e.d = h
	default:
		cfg, err := hqdConfig(so.policies)
		if err != nil {
			return e, err
		}
		if so.tweak != nil {
			so.tweak(&cfg)
		}
		e.sys = supervisor.New(cfg)
		if sp.net {
			ld, err := startLocal(l, e.sys, cfg.Metrics, so.network)
			if err != nil {
				e.sys = nil // startLocal already shut it down
				return e, err
			}
			e.d = ld
		}
	}
	for i := 0; i < so.sessions; i++ {
		s, err := e.newSession(so.wrap)
		if err != nil {
			return e, err
		}
		s.gen = sp.newStream(o.seed+uint64(i), s.pid, o.quick)
		e.sessions = append(e.sessions, s)
	}
	if err := e.prefill(); err != nil {
		return e, err
	}
	// Warm-up rep, discarded: caches fill, the arena and the replay buffers
	// reach their steady size, lazy set-up finishes.
	var warm repStats
	if sp.ladder {
		warm = runGateRung(sp.name, e.sessions, o.seed, gateRungs[1], quickRequests, nil, nil).repStats
	} else {
		blocks := sp.repBlocks(o) / 4
		if blocks < 2 {
			blocks = 2
		}
		warm = runStreamRep(sp.name, e.sessions, blocks, nil)
	}
	if warm.sendErrs+warm.gateRefused > 0 {
		return e, fmt.Errorf("bench: %s warm-up: %d send errors, %d gates refused: %v", sp.name, warm.sendErrs, warm.gateRefused, warm.firstErr)
	}
	return e, nil
}

// prefill builds the working set of sessions whose stream has one.
func (e *env) prefill() error {
	var wg sync.WaitGroup
	errs := make([]error, len(e.sessions))
	for i, s := range e.sessions {
		pm, ok := s.gen.(*policyMix)
		if !ok {
			continue
		}
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			var st repStats
			for blk := pm.prefillNext(); blk != nil; blk = pm.prefillNext() {
				s.sendBlock(blk, &st)
				s.enterGate(&st)
			}
			if st.sendErrs+st.gateRefused > 0 {
				errs[i] = fmt.Errorf("bench: prefill pid %d: %d send errors, %d gates refused: %v", s.pid, st.sendErrs, st.gateRefused, st.firstErr)
			}
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// endToEnd declares the end-to-end metrics: every workload reports every one
// of them, each the trimmed mean over its timed reps (the median over its
// systems for setup_s and peak_rss_mb).
// BENCHMARK.json repeats the list and fixes each metric's bound.
var endToEnd = []struct{ name, unit, better string }{
	{"msgs_per_sec", "1/s", "higher"},
	{"cpu_us_per_msg", "us", "lower"},
	{"gate_p50_us", "us", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// metric is one reported value — the trimmed mean over the timed reps, or the
// median over the systems — with the spread and the sample count printed
// beside it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Reps  int     `json:"reps"`
	Note  string  `json:"note,omitempty"`
	// PerRep holds the value of every rep, in order, so a reader can tell a
	// run-long shift from one disturbed rep.
	PerRep []float64 `json:"per_rep,omitempty"`
}

// metricOf reports the median of per-system samples (set-up time, memory).
func metricOf(unit string, perSystem []float64, note string) metric {
	s := summarize(perSystem)
	return metric{Value: s.Median, Unit: unit, Min: s.Min, Max: s.Max, Reps: s.N, Note: note, PerRep: perSystem}
}

// repMetric reports the trimmed mean of per-rep samples.
func repMetric(unit string, perRep []float64, note string) metric {
	m := metricOf(unit, perRep, note)
	m.Value = trimmedMean(perRep, repTrim)
	return m
}

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result is everything one workload run reports.
type result struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    int               `json:"seconds"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Attempted  uint64            `json:"attempted"`
	Failed     uint64            `json:"failed"`
	FailRatio  float64           `json:"fail_ratio"`
	Correct    bool              `json:"correct"`
	Metrics    map[string]metric `json:"metrics"`
	Extra      map[string]metric `json:"extra,omitempty"` // reported, not gated
	Checks     []check           `json:"checks"`
	MeasuredS  float64           `json:"measured_s"`
}

func (r *result) check(name string, ok bool, format string, args ...interface{}) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.Correct = false
	}
}

// fail adds n failed operations (send errors, clean gates refused, verified
// shortfall, canaries missed) to the run's tally.
func (r *result) fail(n uint64) {
	r.Failed += n
	if n > 0 {
		r.Correct = false
	}
}

// samples are the per-rep values of a run, pooled over its instances.
type samples struct {
	setupS, rssMB       []float64
	mps, cpuUs, gateP50 []float64
	sent                uint64
	gates               int
	// ladder only, indexed by rung
	latUs, lateUs [][]float64
	sustained     []int
}

// runWorkload measures a workload with tracing off: instances fresh systems,
// repsPerInstance timed reps on each, the canaries on the last.
func runWorkload(sp *spec, o options, l layout) (*result, error) {
	res := &result{Workload: sp.name, Seed: o.seed, Seconds: o.seconds, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Correct: true, Metrics: map[string]metric{}, Extra: map[string]metric{}}
	sm := &samples{latUs: make([][]float64, len(gateRungs)), lateUs: make([][]float64, len(gateRungs)), sustained: make([]int, len(gateRungs))}
	for inst := 0; inst < instances; inst++ {
		if err := runInstance(sp, o, l, inst, res, sm); err != nil {
			return nil, err
		}
	}
	res.check("verified", res.Correct, "%d messages sent over %d reps on %d systems, each rep's count matched the system's verified total", sm.sent, timedReps, instances)
	res.Metrics["setup_s"] = metricOf("s", sm.setupS, "start (build hqd, start it, dial; or start the local system) to first timed send, per system")
	res.Metrics["peak_rss_mb"] = metricOf("MiB", sm.rssMB, rssNote(sp))
	res.Metrics["msgs_per_sec"] = repMetric("1/s", sm.mps, fmt.Sprintf("%d messages per rep", sm.sent/timedReps))
	res.Metrics["cpu_us_per_msg"] = repMetric("us", sm.cpuUs, "")
	if !sp.ladder {
		res.Metrics["gate_p50_us"] = repMetric("us", sm.gateP50, fmt.Sprintf("block due (previous verdict in) to its own verdict, %d messages per block, closed loop, %d blocks", blockMsgs+1, sm.gates))
	} else {
		const gated = 1 // the 2000 req/s/session rung carries the end-to-end latency
		res.Metrics["gate_p50_us"] = repMetric("us", sm.gateP50,
			fmt.Sprintf("due time to verdict at %d req/s/session, %d samples", gateRungs[gated], len(sm.latUs[gated])))
		maxRate := 0
		for ri, rate := range gateRungs {
			s := summarize(sm.latUs[ri])
			res.Extra[fmt.Sprintf("gate_open_us.r%d", rate)] = metric{Value: s.Median, Unit: "us", Min: s.Min, Max: s.Max, Reps: timedReps,
				Note: fmt.Sprintf("%s; generator late %s; sustained in %d/%d reps", s, summarize(sm.lateUs[ri]), sm.sustained[ri], timedReps)}
			if 2*sm.sustained[ri] > timedReps && (ri == 0 || maxRate == gateRungs[ri-1]) {
				maxRate = rate
			}
		}
		res.Extra["max_sustained_rps"] = metric{Value: float64(maxRate), Unit: "1/s", Min: float64(maxRate), Max: float64(maxRate), Reps: timedReps,
			Note: "highest rung sustained in most reps with every lower rung sustained"}
	}
	res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	return res, nil
}

func rssNote(sp *spec) string {
	if sp.net {
		return "VmHWM of each hqd child at the end of its reps"
	}
	return "highest VmRSS of this process at the rep boundaries, after a collection that drops set-up garbage, per system"
}

// runInstance sets one system up, runs its timed reps into sm, checks it,
// and tears it down. The last instance also runs the canaries.
func runInstance(sp *spec, o options, l layout, inst int, res *result, sm *samples) (err error) {
	o.seed += uint64(inst) << 16 // every system plays its own streams
	t0 := time.Now()
	e, err := setup(sp, o, l, setupOpts{})
	if err != nil {
		return err
	}
	sm.setupS = append(sm.setupS, time.Since(t0).Seconds())
	defer func() {
		if cerr := e.close(); err == nil {
			err = cerr
		}
		if !sp.net {
			// The next system must not inherit this one's heap.
			debug.FreeOSMemory()
		}
	}()
	base, err := e.counters()
	if err != nil {
		return err
	}
	rss := 0.0
	sampleRSS := func() error {
		mb, err := e.rssMB()
		if mb > rss {
			rss = mb
		}
		return err
	}
	if !sp.net {
		debug.FreeOSMemory()
	}
	if err := sampleRSS(); err != nil {
		return err
	}
	t1 := time.Now()
	for rep := 0; rep < repsPerInstance; rep++ {
		before, err := e.counters()
		if err != nil {
			return err
		}
		cpu0 := e.cpu()
		var st repStats
		if sp.ladder {
			st = ladderRep(e, o, inst*repsPerInstance+rep, sm)
		} else {
			st = runStreamRep(sp.name, e.sessions, sp.repBlocks(o), nil)
			sm.gateP50 = append(sm.gateP50, median(st.blockUs))
			sm.gates += len(st.blockUs)
		}
		cpu := e.cpu() - cpu0
		after, err := e.counters()
		if err != nil {
			return err
		}
		verifiedDelta(res, inst*repsPerInstance+rep, before, after, st)
		sm.sent += st.msgs
		sm.mps = append(sm.mps, float64(st.msgs)/st.wall.Seconds())
		sm.cpuUs = append(sm.cpuUs, float64(cpu.Microseconds())/float64(st.msgs))
		if err := sampleRSS(); err != nil {
			return err
		}
	}
	res.MeasuredS += time.Since(t1).Seconds()
	sm.rssMB = append(sm.rssMB, rss)

	if pm, ok := e.sessions[0].gen.(*policyMix); ok {
		for _, s := range e.sessions {
			cur, _ := e.sys.Verifier().Entries(s.pid)
			res.check(fmt.Sprintf("entries.sys%d.pid%d", inst, s.pid), cur == pm.liveEntries(),
				"verifier holds %d entries, generator expects %d", cur, pm.liveEntries())
		}
	}
	if inst == instances-1 {
		return runCanaries(e, res, base)
	}
	after, err := e.counters()
	if err != nil {
		return err
	}
	if killed := after.Killed - base.Killed; killed != 0 {
		res.fail(killed)
		res.check(fmt.Sprintf("kills.sys%d", inst), false, "%d clean processes killed", killed)
	}
	return nil
}

// ladderRep climbs every rung once and files the rungs' samples.
func ladderRep(e *env, o options, rep int, sm *samples) repStats {
	var all repStats
	for ri, rate := range gateRungs {
		rs := runGateRung(e.sp.name, e.sessions, o.seed+uint64(rep)<<32, rate, rungRequests(o, rate), nil, nil)
		all.merge(rs.repStats)
		all.wall += rs.wall
		sm.latUs[ri] = append(sm.latUs[ri], rs.latUs...)
		sm.lateUs[ri] = append(sm.lateUs[ri], rs.lateUs...)
		if rs.sustained() {
			sm.sustained[ri]++
		}
		if ri == 1 {
			sm.gateP50 = append(sm.gateP50, median(rs.latUs))
		}
	}
	return all
}

// verifiedDelta checks one rep's exact message count against the system's
// own verified total and tallies any shortfall as failures.
func verifiedDelta(res *result, rep int, before, after counters, st repStats) {
	res.Attempted += st.msgs + st.gates
	res.fail(st.sendErrs + st.gateRefused)
	got := after.Verified - before.Verified
	if got != st.msgs {
		short := st.msgs - got
		if got > st.msgs {
			short = got - st.msgs
		}
		res.fail(short)
		res.check(fmt.Sprintf("verified.rep%d", rep), false, "sent %d messages, system verified %d", st.msgs, got)
	}
	if st.firstErr != nil {
		res.check(fmt.Sprintf("errors.rep%d", rep), false, "%d send errors, %d gates refused: %v", st.sendErrs, st.gateRefused, st.firstErr)
	}
}

// runCanaries proves the system still enforces: where the chain holds cfi, a
// process that checks a corrupted code pointer must be refused at its next
// gate and attributed to cfi; where it holds hmac, a process that sends an
// unsealed frame must die attributed to hmac. It then checks that nothing
// else was killed.
func runCanaries(e *env, res *result, base counters) error {
	type canary struct {
		policy string
		msgs   func(pid int32) []ipc.Message
		raw    bool
	}
	before, err := e.counters()
	if err != nil {
		return err
	}
	var canaries []canary
	for _, p := range e.policies {
		switch p {
		case "cfi":
			canaries = append(canaries, canary{policy: p, msgs: canaryCFI})
		case "hmac":
			canaries = append(canaries, canary{policy: p, msgs: canaryUnsealed, raw: true})
		}
	}
	refused := 0
	for _, c := range canaries {
		s, err := e.newSession(nil)
		if err != nil {
			return err
		}
		send := s.send
		if c.raw {
			send = s.raw
		}
		for _, m := range c.msgs(s.pid) {
			_ = send.Send(m) // a kill notice may already have closed the session
		}
		_ = send.Send(s.syscallMsg())
		gateErr := s.gate()
		s.close()
		res.Attempted++
		if gateErr != nil {
			refused++
		} else {
			res.fail(1)
		}
		res.check("canary."+c.policy+".refused", gateErr != nil, "gate verdict: %v", gateErr)
	}
	// Kill totals land when the session is finalized; give that a moment.
	var after counters
	deadline := time.Now().Add(3 * time.Second)
	for {
		if after, err = e.counters(); err != nil {
			return err
		}
		if after.Killed-base.Killed >= uint64(len(canaries)) || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, c := range canaries {
		got := after.Violations[c.policy] - before.Violations[c.policy]
		res.Attempted++
		if got != 1 {
			res.fail(1)
		}
		res.check("canary."+c.policy+".attributed", got == 1, "violations attributed to %s: +%d", c.policy, got)
	}
	killed := after.Killed - base.Killed
	res.check("kills", killed == uint64(len(canaries)), "%d processes killed, %d canaries (no clean session may die)", killed, len(canaries))
	if killed > uint64(len(canaries)) {
		res.fail(killed - uint64(len(canaries)))
	}
	return nil
}
