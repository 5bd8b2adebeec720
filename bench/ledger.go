package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"herqules/internal/fpga"
	"herqules/internal/hqnet"
	"herqules/internal/ipc"
	"herqules/internal/kernel"
	"herqules/internal/policy"
	"herqules/internal/sim"
	"herqules/internal/supervisor"
	"herqules/internal/uarch"
	"herqules/internal/verifier"
)

// The per-layer ledger (-trace 1). Every row is measured from outside the
// program: isolated single-threaded loops over one layer's public functions,
// and one traced in-process rep of each workload whose block spans and
// existing public counters (a counting WrapConn, Server.Conns, System.Stats,
// Kernel.Stats, telemetry snapshots) give the rest. Nothing here feeds the
// end-to-end metrics, which are always taken with tracing off.

// layerRow declares one per-layer metric: BENCHMARK.json lists the same
// names, units and directions (a test holds the two together), and moves
// records, before anything is measured, which end-to-end metric on which
// workload the row is expected to move.
type layerRow struct {
	name, unit, better string
	moves              string
}

func rungRows(prefix, unit, moves string) []layerRow {
	var rows []layerRow
	for _, r := range gateRungs {
		rows = append(rows, layerRow{fmt.Sprintf("%s.r%d", prefix, r), unit, "lower", moves})
	}
	return rows
}

var layerRows = func() []layerRow {
	rows := []layerRow{
		{"ipc.seal_ns_per_msg", "ns", "lower", "cpu_us_per_msg@ring_policy,net_stream"},
		{"ipc.ring_roundtrip_ns_per_msg", "ns", "lower", "msgs_per_sec@ring_stream"},
		{"ipc.ring_send_block_ns_per_msg", "ns", "lower", "msgs_per_sec@ring_stream"},
		{"ipc.frame_encode_ns_per_msg", "ns", "lower", "cpu_us_per_msg@net_stream"},
		{"ipc.frame_decode_ns_per_msg", "ns", "lower", "cpu_us_per_msg@net_stream"},
		{"hqnet.dial_us", "us", "lower", "setup_s@net_*"},
		{"hqnet.client_send_ns_per_msg", "ns", "lower", "msgs_per_sec@net_stream"},
		{"hqnet.writes_per_msg", "count", "lower", "msgs_per_sec,cpu_us_per_msg@net_stream"},
		{"hqnet.bytes_per_write", "count", "higher", "msgs_per_sec,cpu_us_per_msg@net_stream"},
		{"hqnet.reads_per_kmsg", "count", "lower", "msgs_per_sec,cpu_us_per_msg@net_stream"},
		{"hqnet.acks_per_kmsg", "count", "lower", "msgs_per_sec,cpu_us_per_msg@net_stream"},
		{"hqnet.queue_depth_mean", "count", "lower", "gate_p50_us@net_gate"},
		{"hqnet.queue_depth_max", "count", "lower", "gate_p50_us@net_gate"},
		{"hqnet.unix_msgs_per_sec", "1/s", "higher", "msgs_per_sec@net_stream"},
		{"hqnet.tcp_msgs_per_sec", "1/s", "higher", "msgs_per_sec@net_stream (loopback, not a link)"},
		{"hqnet.counter_only_ns_per_msg", "ns", "lower", "hqnet's share of cpu_us_per_msg@net_stream"},
		{"hqnet.gate_rtt_closed_p50_us", "us", "lower", "gate_p50_us@net_gate"},
		{"hqnet.gate_rtt_closed_p99_us", "us", "lower", "gate_p50_us@net_gate"},
		{"hqnet.max_sustained_rps", "1/s", "higher", "the ladder's verdict; gate_p50_us@net_gate rises first"},
	}
	rows = append(rows, rungRows("hqnet.gate_open_p50_us", "us", "gate_p50_us@net_gate")...)
	rows = append(rows, rungRows("hqnet.gate_open_p99_us", "us", "hqnet.max_sustained_rps")...)
	rows = append(rows, rungRows("hqnet.gate_open_p999_us", "us", "hqnet.max_sustained_rps")...)
	rows = append(rows, rungRows("hqnet.gen_late_p99_us", "us", "none: the generator's own lateness")...)
	for _, p := range []int{1, 2} {
		for _, s := range []int{1, 2} {
			rows = append(rows, layerRow{fmt.Sprintf("verifier.replay_mps.p%ds%d", p, s), "1/s", "higher", "msgs_per_sec@ring_stream"})
		}
	}
	rows = append(rows,
		layerRow{"verifier.pump_skeleton_ns_per_msg", "ns", "lower", "msgs_per_sec@ring_stream"},
		layerRow{"verifier.checkseq_ns_per_msg", "ns", "lower", "cpu_us_per_msg@ring_stream"},
		layerRow{"verifier.deliver_batch_ns_per_msg", "ns", "lower", "msgs_per_sec@ring_policy"},
		layerRow{"verifier.deliver_hot_hqd_ns_per_msg", "ns", "lower", "cpu_us_per_msg@net_stream"},
		layerRow{"verifier.deliver_hot_ring_ns_per_msg", "ns", "lower", "cpu_us_per_msg@ring_stream"},
		layerRow{"verifier.allocs_per_msg", "count", "lower", "peak_rss_mb, all"},
		layerRow{"verifier.batch_size_mean", "count", "higher", "msgs_per_sec@ring_stream"},
		layerRow{"verifier.queue_depth_mean", "count", "lower", "gate_p50_us@net_gate"},
		layerRow{"verifier.pump_stall_share", "%", "lower", "msgs_per_sec@ring_stream"},
	)
	for _, p := range specByName("ring_policy").policies {
		rows = append(rows, layerRow{"policy." + p + "_ns_per_msg", "ns", "lower", "msgs_per_sec,cpu_us_per_msg@ring_policy"})
	}
	rows = append(rows,
		layerRow{"policy.hmac_unseal_ns_per_msg", "ns", "lower", "msgs_per_sec,cpu_us_per_msg@ring_policy"},
		layerRow{"policy.entries_peak", "count", "lower", "peak_rss_mb@ring_policy"},
		layerRow{"kernel.gate_ready_ns", "ns", "lower", "gate_p50_us@net_gate"},
		layerRow{"kernel.gate_wait_p50_us", "us", "lower", "msgs_per_sec@*_stream"},
		layerRow{"kernel.gate_wait_p99_us", "us", "lower", "msgs_per_sec@*_stream"},
		layerRow{"kernel.sync_stall_ratio", "%", "lower", "msgs_per_sec@*_stream"},
		layerRow{"supervisor.admit_close_us", "us", "lower", "setup_s"},
		layerRow{"telemetry.metrics_overhead_pct", "%", "lower", "msgs_per_sec@ring_stream"},
		layerRow{"telemetry.flight_overhead_pct", "%", "lower", "msgs_per_sec@ring_stream"},
		layerRow{"model.fpga_send_ns", "ns", "lower", "context: modelled AppendWrite-FPGA send"},
		layerRow{"model.uarch_hw_send_ns", "ns", "lower", "context: modelled AppendWrite-uarch send"},
		layerRow{"model.uarch_model_send_ns", "ns", "lower", "context: software model of the uarch send"},
		layerRow{"model.batch_recv_ns", "ns", "lower", "context: modelled batched receive"},
		layerRow{"model.sw_hw_ratio", "count", "lower", "context: measured ring send over modelled hardware send"},
	)
	for _, w := range []string{"net_stream", "ring_stream", "ring_policy"} {
		rows = append(rows, layerRow{"ledger.attributed_cpu_pct." + w, "%", "higher", "reported, not gated"})
	}
	for _, sp := range specs {
		rows = append(rows, layerRow{"trace.overhead_pct." + sp.name, "%", "lower", "none: cost of tracing itself"})
	}
	rows = append(rows, layerRow{"bench.fail_ratio", "count", "lower", "must stay 0"})
	return rows
}()

// ledger is the report of one traced run (out/ledger.json).
type ledger struct {
	Seed      uint64                         `json:"seed"`
	Focus     string                         `json:"workload"`
	Host      hostInfo                       `json:"host"`
	Correct   bool                           `json:"correct"`
	Attempted uint64                         `json:"attempted"`
	Failed    uint64                         `json:"failed"`
	Metrics   map[string]metric              `json:"metrics"`
	Moves     map[string]string              `json:"should_move"`
	SelfTimes map[string]map[string]selfTime `json:"span_self_times"`
	Checks    []check                        `json:"checks"`

	tr  *tracer
	cpu map[string]float64 // traced in-process CPU ns per message, by workload
}

func (led *ledger) set(name string, v float64, format string, args ...interface{}) {
	led.Metrics[name] = metric{Value: v, Min: v, Max: v, Reps: 1, Note: fmt.Sprintf(format, args...)}
}

func (led *ledger) get(name string) float64 { return led.Metrics[name].Value }

// scale shrinks the ledger's fixed counts under -quick.
func scale(o options, full, quick int) int {
	if o.quick {
		return quick
	}
	return full
}

// nsPer times f, which processes n messages, and returns ns per message.
func nsPer(n int, f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// warmed runs f once discarded — the first pass over freshly grown tables
// pays the page faults of a heap that has never been that large — then three
// more times, and returns the median.
func warmed(f func() (float64, error)) (float64, error) {
	var xs []float64
	for i := 0; i < 4; i++ {
		x, err := f()
		if err != nil {
			return 0, err
		}
		if i > 0 {
			xs = append(xs, x)
		}
	}
	return median(xs), nil
}

// runLedger measures every per-layer row. focus only labels the run: the
// ledger always covers all four workloads, because its rows attribute one
// workload's cost against another's.
func runLedger(focus *spec, o options, l layout) (*ledger, error) {
	led := &ledger{Seed: o.seed, Focus: focus.name, Host: host(l), Correct: true, Metrics: map[string]metric{}, Moves: map[string]string{},
		tr: newTracer(), cpu: map[string]float64{}}
	steps := []func(options, layout) error{
		led.stageIPC, led.stagePolicies, led.stageVerifier, led.stageKernel, led.stageAdmit,
		led.tracedRing, led.tracedNetStream, led.tracedNetGate,
	}
	for _, step := range steps {
		if err := step(o, l); err != nil {
			return nil, err
		}
	}
	led.models()
	led.attribute()
	led.set("bench.fail_ratio", float64(led.Failed)/float64(led.Attempted), "%d failed of %d attempted across the traced reps", led.Failed, led.Attempted)
	for _, row := range layerRows {
		m, ok := led.Metrics[row.name]
		if !ok {
			return nil, fmt.Errorf("bench: ledger row %s was not measured", row.name)
		}
		m.Unit = row.unit
		led.Metrics[row.name] = m
		led.Moves[row.name] = row.moves
	}
	led.SelfTimes = led.tr.selfTimes()
	if err := led.tr.write(filepath.Join(l.out, "trace.json")); err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(l.out, "ledger.json"), led); err != nil {
		return nil, err
	}
	return led, nil
}

func printLedger(led *ledger) {
	fmt.Printf("== per-layer ledger (asked for %s; it always covers every workload)  seed=%d  GOMAXPROCS=%d  nproc=%d  %s\n", led.Focus, led.Seed, led.Host.GOMAXPROCS, led.Host.NumCPU, led.Host.GoVersion)
	for _, row := range layerRows {
		m := led.Metrics[row.name]
		fmt.Printf("  %-40s %16.4f %-5s  -> %s", row.name, m.Value, m.Unit, row.moves)
		if m.Note != "" {
			fmt.Printf("  (%s)", m.Note)
		}
		fmt.Println()
	}
	passed := 0
	for _, c := range led.Checks {
		if c.OK {
			passed++
			continue
		}
		fmt.Printf("  [FAIL] %-28s %s\n", c.Name, c.Detail)
	}
	fmt.Printf("  %d of %d correctness checks passed across the in-process reps\n", passed, len(led.Checks))
	fmt.Printf("wrote %s and %s\n", filepath.Join("bench", "out", "ledger.json"), filepath.Join("bench", "out", "trace.json"))
}

// absorb folds one traced workload's tallies and checks into the ledger.
func (led *ledger) absorb(res *result) {
	led.Attempted += res.Attempted
	led.Failed += res.Failed
	for _, c := range res.Checks {
		c.Name = res.Workload + "." + c.Name
		led.Checks = append(led.Checks, c)
	}
	led.Correct = led.Correct && res.Correct
}

// ---- isolated stage loops -------------------------------------------------

// stageIPC times sealing, the bare ring, and the frame codec.
func (led *ledger) stageIPC(o options, _ layout) error {
	n := scale(o, 1<<21, 1<<14)
	hot := newHotMix(o.seed, 1, hotSlots, hotPeriod, blockMsgs)

	sealer := ipc.SealSender(ipc.SenderFunc(func(ipc.Message) error { return nil }), ipc.MacKey{K0: o.seed, K1: ^o.seed})
	led.set("ipc.seal_ns_per_msg", nsPer(n, func() {
		for sent := 0; sent < n; sent += blockMsgs {
			for _, m := range hot.next() {
				_ = sealer.Send(m)
			}
		}
	}), "SealSender over a no-op sender, %d messages", n)

	// One goroutine fills half the ring and drains it again: the instruction
	// cost of Send and RecvBatch with no cross-core traffic, which is what
	// adds up; the cache-line transfers of the live workload land in the
	// ledger's unattributed remainder.
	ring := ipc.NewSharedRing(ringSlots)
	buf := make([]ipc.Message, verifier.DefaultBatchSize)
	led.set("ipc.ring_roundtrip_ns_per_msg", nsPer(n, func() {
		for sent := 0; sent < n; sent += blockMsgs {
			blk := hot.next()
			for half := 0; half < 2; half++ {
				for _, m := range blk[half*ringSlots/2 : (half+1)*ringSlots/2] {
					_ = ring.Sender.Send(m)
				}
				for got := 0; got < ringSlots/2; {
					k, _, _ := ipc.RecvBatchFrom(ring.Receiver, buf)
					got += k
				}
			}
		}
	}), "SharedRing Send + RecvBatch, one goroutine, bursts of %d, no verifier, %d messages", ringSlots/2, n)

	fw := ipc.NewFrameWriter(io.Discard)
	led.set("ipc.frame_encode_ns_per_msg", nsPer(n, func() {
		for sent := 0; sent < n; sent += blockMsgs {
			for _, m := range hot.next() {
				_ = fw.WriteMessage(m)
			}
		}
	}), "FrameWriter to io.Discard, %d messages", n)

	var wire bytes.Buffer
	enc := ipc.NewFrameWriter(&wire)
	for _, m := range hot.period {
		_ = enc.WriteMessage(m)
	}
	dec := ipc.NewFrameDecoder(bytes.NewReader(wire.Bytes()))
	out := make([]ipc.Message, 64)
	led.set("ipc.frame_decode_ns_per_msg", nsPer(len(hot.period), func() {
		for {
			if _, ok, _ := dec.Decode(out); !ok {
				return
			}
		}
	}), "FrameDecoder over %d pre-encoded frames, 64 per call", len(hot.period))
	return nil
}

// policyStream is the ring_policy stream materialized for direct calls: the
// prefill, then blocks steady-state blocks.
func policyStream(o options, pid int32, blocks int) (prefill, steady []ipc.Message) {
	sz := fullPolicySizes
	if o.quick {
		sz = quickPolicySizes
	}
	pm := newPolicyMix(o.seed, pid, sz)
	for blk := pm.prefillNext(); blk != nil; blk = pm.prefillNext() {
		prefill = append(prefill, blk...)
	}
	for b := 0; b < blocks; b++ {
		steady = append(steady, pm.next()...)
	}
	return prefill, steady
}

// sealInPlace stamps ms with consecutive sequence numbers from first and,
// when keyed, the MAC a SealSender would have computed.
func sealInPlace(ms []ipc.Message, first uint64, key ipc.MacKey, keyed bool) {
	for i := range ms {
		ms[i].Seq = first + uint64(i)
		ms[i].Mac = 0
		if keyed {
			ms[i].Mac = ipc.MacSeal(key, ms[i], ms[i].Seq)
		}
	}
}

// stagePolicies times each policy's Handle (and hmac's Unseal) directly over
// the ring_policy stream, then the whole chain through DeliverBatch.
func (led *ledger) stagePolicies(o options, _ layout) error {
	const pid = 1
	prefill, steady := policyStream(o, pid, scale(o, 64, 2))
	names := specByName("ring_policy").policies
	entries := 0
	for _, name := range names {
		p, err := policy.New(name)
		if err != nil {
			return err
		}
		p.ProcessStarted(pid)
		for _, m := range prefill {
			p.Handle(m)
		}
		ns, err := warmed(func() (float64, error) {
			violations := 0
			ns := nsPer(len(steady), func() {
				for _, m := range steady {
					if p.Handle(m) != nil {
						violations++
					}
				}
			})
			if violations > 0 {
				return 0, fmt.Errorf("bench: policy %s flagged %d clean messages", name, violations)
			}
			return ns, nil
		})
		if err != nil {
			return err
		}
		entries += p.Entries()
		led.set("policy."+name+"_ns_per_msg", ns, "Handle over %d steady-state messages after a %d-message prefill, %d entries, median of 3 passes", len(steady), len(prefill), p.Entries())
	}
	led.set("policy.entries_peak", float64(entries*ringSessions), "Σ Entries() over the chain, %d processes", ringSessions)

	kr := policy.NewKeyringSeeded(o.seed)
	kr.Program(pid)
	key, _ := kr.Key(pid)
	h := policy.NewHMAC(kr)
	h.ProcessStarted(pid)
	sealed := append([]ipc.Message(nil), steady...)
	next := uint64(1)
	ns, err := warmed(func() (float64, error) {
		sealInPlace(sealed, next, key, true) // the stream position moves on with every pass
		next += uint64(len(sealed))
		violations := 0
		ns := nsPer(len(sealed), func() {
			for _, m := range sealed {
				if _, v := h.Unseal(m); v != nil {
					violations++
				}
			}
		})
		if violations > 0 {
			return 0, fmt.Errorf("bench: hmac rejected %d correctly sealed messages", violations)
		}
		return ns, nil
	})
	if err != nil {
		return err
	}
	led.set("policy.hmac_unseal_ns_per_msg", ns, "Unseal over %d sealed messages, median of 3 passes", len(sealed))

	if ns, err = deliverDirect(names, prefill, steady); err != nil {
		return err
	}
	led.set("verifier.deliver_batch_ns_per_msg", ns, "DeliverBatch, full sealed chain, hqd defaults, %d messages in blocks of %d, median of 3 passes", len(steady), blockMsgs)
	return nil
}

// deliverDirect runs prefill then steady (state-preserving, so it can be
// passed over again) through Verifier.DeliverBatch on a system with hqd's
// defaults over the given chain, and returns the steady part's ns per
// message. The stream is sealed when the chain holds hmac.
func deliverDirect(policies []string, prefill, steady []ipc.Message) (float64, error) {
	cfg, err := hqdConfig(policies)
	if err != nil {
		return 0, err
	}
	cfg.Shards = 1
	sys := supervisor.New(cfg)
	// Admission over an empty replay registers the process (and programs its
	// key) without putting a pump between the caller and DeliverBatch.
	r, err := sys.Admit(ipc.NewReplay(nil))
	if err != nil {
		return 0, err
	}
	key, keyed := r.Key()
	stamp := func(ms []ipc.Message, first uint64) []ipc.Message {
		out := append([]ipc.Message(nil), ms...)
		for i := range out {
			out[i].PID = r.PID()
		}
		sealInPlace(out, first, key, keyed)
		return out
	}
	pre := stamp(prefill, 1)
	v := sys.Verifier()
	for i := 0; i < len(pre); i += blockMsgs {
		v.DeliverBatch(pre[i:min(i+blockMsgs, len(pre))])
	}
	sent := uint64(len(pre))
	ns, err := warmed(func() (float64, error) {
		run := stamp(steady, sent+1)
		sent += uint64(len(run))
		return nsPer(len(run), func() {
			for i := 0; i < len(run); i += blockMsgs {
				v.DeliverBatch(run[i:min(i+blockMsgs, len(run))])
			}
		}), nil
	})
	viol := len(v.Violations(r.PID()))
	got := v.Messages(r.PID())
	r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sys.Shutdown(ctx); err != nil {
		return 0, err
	}
	if viol > 0 || got != sent {
		return 0, fmt.Errorf("bench: direct delivery: %d violations, %d of %d messages verified", viol, got, sent)
	}
	return ns, err
}

// replayStream interleaves the hot mixes of two processes in runs of 256
// messages, sequence-numbered per process: the shape a drain loop sees.
func replayStream(seed uint64, pids [2]int32, n int) []ipc.Message {
	gens := [2]*hotMix{
		newHotMix(seed, pids[0], hotSlots, hotPeriod, 256),
		newHotMix(seed+1, pids[1], hotSlots, hotPeriod, 256),
	}
	seq := [2]uint64{}
	out := make([]ipc.Message, 0, n)
	for i := 0; len(out) < n; i ^= 1 {
		for _, m := range gens[i].next() {
			seq[i]++
			m.Seq = seq[i]
			out = append(out, m)
		}
	}
	return out
}

// pumpReplay builds a fresh verifier over factory, registers two processes,
// and times Pump over a replay of their interleaved hot mixes.
func pumpReplay(seed uint64, n int, factory verifier.PolicyFactory, shards int, checkSeq bool) (nsPerMsg, allocsPerMsg float64, err error) {
	k := kernel.New(nil)
	v := verifier.NewSharded(factory, k, shards)
	v.CheckSeq = checkSeq
	k.SetListener(v)
	pids := [2]int32{k.Register(), k.Register()}
	msgs := replayStream(seed, pids, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nsPerMsg = nsPer(len(msgs), func() { v.Pump(ipc.NewReplay(msgs)) })
	runtime.ReadMemStats(&after)
	for _, pid := range pids {
		if viol := v.Violations(pid); len(viol) > 0 {
			return 0, 0, fmt.Errorf("bench: replay: pid %d: %v", pid, viol[0])
		}
	}
	if got := v.TotalMessages(); got != uint64(len(msgs)) {
		return 0, 0, fmt.Errorf("bench: replay: %d of %d messages verified", got, len(msgs))
	}
	return nsPerMsg, float64(after.Mallocs-before.Mallocs) / float64(len(msgs)), nil
}

// stageVerifier times the drain pipeline over a replay: the GOMAXPROCS ×
// shards grid, the empty-chain skeleton, CheckSeq on top of it, allocations.
func (led *ledger) stageVerifier(o options, _ layout) error {
	n := scale(o, 1<<20, 1<<14)
	hotChain, err := policy.SetFactory(specByName("ring_stream").policies...)
	if err != nil {
		return err
	}
	empty := func() []policy.Policy { return nil }
	best := func(factory verifier.PolicyFactory, shards int, checkSeq bool) (float64, float64, error) {
		var allocs []float64
		ns, err := warmed(func() (float64, error) {
			ns, a, err := pumpReplay(o.seed, n, factory, shards, checkSeq)
			allocs = append(allocs, a)
			return ns, err
		})
		return ns, median(allocs), err
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range []int{1, 2} {
		runtime.GOMAXPROCS(p)
		for _, s := range []int{1, 2} {
			ns, _, err := best(hotChain, s, true)
			if err != nil {
				return err
			}
			led.set(fmt.Sprintf("verifier.replay_mps.p%ds%d", p, s), 1e9/ns, "Pump over a %d-message replay, GOMAXPROCS %d, %d shards, cfi+counter, CheckSeq on, median of 3", n, p, s)
		}
	}
	runtime.GOMAXPROCS(prev)
	skel, _, err := best(empty, 0, false)
	if err != nil {
		return err
	}
	led.set("verifier.pump_skeleton_ns_per_msg", skel, "Pump over replay, empty chain, CheckSeq off, GOMAXPROCS %d", prev)
	withSeq, _, err := best(empty, 0, true)
	if err != nil {
		return err
	}
	led.set("verifier.checkseq_ns_per_msg", withSeq-skel, "same with CheckSeq on (%.2f ns) minus the skeleton", withSeq)
	_, allocs, err := best(hotChain, 0, true)
	if err != nil {
		return err
	}
	led.set("verifier.allocs_per_msg", allocs, "runtime.MemStats.Mallocs delta around Pump, per message (pipeline start-up amortized over %d)", n)

	// The hot mix through DeliverBatch under each workload's configuration:
	// the chain's share of net_stream and ring_stream CPU.
	hot := newHotMix(o.seed, 1, hotSlots, hotPeriod, blockMsgs)
	var stream []ipc.Message
	for b := 0; b < scale(o, 128, 16); b++ {
		stream = append(stream, hot.next()...)
	}
	for _, c := range []struct {
		row      string
		policies []string
	}{
		{"verifier.deliver_hot_hqd_ns_per_msg", hqdPolicies()},
		{"verifier.deliver_hot_ring_ns_per_msg", specByName("ring_stream").policies},
	} {
		ns, err := deliverDirect(c.policies, nil, stream)
		if err != nil {
			return err
		}
		led.set(c.row, ns, "DeliverBatch over %d hot-mix messages, chain %v, hqd defaults", len(stream), c.policies)
	}
	return nil
}

// stageKernel times a gate whose synchronization has already arrived.
func (led *ledger) stageKernel(o options, _ layout) error {
	k := kernel.New(nil)
	pid := k.Register()
	n := scale(o, 200000, 2000)
	var refused int
	both := nsPer(n, func() {
		for i := 0; i < n; i++ {
			k.NotifySyncReady(pid)
			if k.SyscallEnter(pid, 0) != nil {
				refused++
			}
		}
	})
	notify := nsPer(n, func() {
		for i := 0; i < n; i++ {
			k.NotifySyncReady(pid)
		}
	})
	if refused > 0 {
		return fmt.Errorf("bench: kernel refused %d ready gates", refused)
	}
	led.set("kernel.gate_ready_ns", both-notify, "NotifySyncReady+SyscallEnter (%.1f ns) minus NotifySyncReady alone, %d gates", both, n)
	return nil
}

// stageAdmit times the process lifecycle: admit a ring, close it, finalize.
func (led *ledger) stageAdmit(o options, _ layout) error {
	cfg, err := hqdConfig(specByName("ring_stream").policies)
	if err != nil {
		return err
	}
	sys := supervisor.New(cfg)
	var us []float64
	for i := 0; i < scale(o, 200, 20); i++ {
		t0 := time.Now()
		s, err := admitRing(sys)
		if err != nil {
			return err
		}
		s.close()
		us = append(us, float64(time.Since(t0))/1e3)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sys.Shutdown(ctx); err != nil {
		return err
	}
	led.set("supervisor.admit_close_us", median(us), "Admit + close + finalize, median of %d", len(us))
	return nil
}

func (led *ledger) models() {
	led.set("model.fpga_send_ns", fpga.SendNanos, "fpga.SendNanos")
	led.set("model.uarch_hw_send_ns", uarch.SendNanosHW, "uarch.SendNanosHW")
	led.set("model.uarch_model_send_ns", uarch.SendNanosModel, "uarch.SendNanosModel")
	led.set("model.batch_recv_ns", sim.BatchRecvNanos(sim.RecvBurstOverheadNanosShared, verifier.DefaultBatchSize),
		"sim.BatchRecvNanos at the verifier's default batch of %d", verifier.DefaultBatchSize)
	led.set("model.sw_hw_ratio", led.get("ipc.ring_send_block_ns_per_msg")/uarch.SendNanosHW,
		"measured ring send ns per message over the modelled hardware send")
}

// attribute sums the isolated stages each workload's messages pass through
// and states them as a share of the workload's measured CPU per message.
// CPU time adds across goroutines and processes where wall time does not, so
// the share that is left is what the stage loops do not explain: system
// calls, wake-ups, queue hand-offs, cache misses between stages.
func (led *ledger) attribute() {
	stages := map[string][]string{
		"net_stream":  {"ipc.seal_ns_per_msg", "ipc.frame_encode_ns_per_msg", "ipc.frame_decode_ns_per_msg", "verifier.pump_skeleton_ns_per_msg", "verifier.deliver_hot_hqd_ns_per_msg"},
		"ring_stream": {"ipc.ring_roundtrip_ns_per_msg", "verifier.pump_skeleton_ns_per_msg", "verifier.deliver_hot_ring_ns_per_msg"},
		"ring_policy": {"ipc.seal_ns_per_msg", "ipc.ring_roundtrip_ns_per_msg", "verifier.pump_skeleton_ns_per_msg", "verifier.deliver_batch_ns_per_msg"},
	}
	for w, rows := range stages {
		sum := 0.0
		for _, r := range rows {
			sum += led.get(r)
		}
		led.set("ledger.attributed_cpu_pct."+w, 100*sum/led.cpu[w], "Σ %v = %.1f ns of %.1f ns CPU per message (traced in-process rep)", rows, sum, led.cpu[w])
	}
}

// ---- traced workloads, in-process ------------------------------------------

// tracedRep is what in-process reps measured, with the run's checks applied;
// add accumulates several reps into one figure.
type tracedRep struct {
	repStats
	cpu time.Duration // whole process
}

func (r tracedRep) mps() float64   { return float64(r.msgs) / r.wall.Seconds() }
func (r tracedRep) cpuNs() float64 { return float64(r.cpu.Nanoseconds()) / float64(r.msgs) }

func (r *tracedRep) add(o tracedRep) {
	r.merge(o.repStats)
	r.wall += o.wall
	r.cpu += o.cpu
}

// oneRep runs f once on e between counter and CPU readings and checks the
// verified count like a timed rep.
func oneRep(e *env, res *result, rep int, f func() repStats) (tracedRep, error) {
	before, err := e.counters()
	if err != nil {
		return tracedRep{}, err
	}
	cpu0 := e.cpu()
	st := f()
	cpu := e.cpu() - cpu0
	after, err := e.counters()
	if err != nil {
		return tracedRep{}, err
	}
	verifiedDelta(res, rep, before, after, st)
	return tracedRep{repStats: st, cpu: cpu}, nil
}

// streamReps runs n closed-loop reps of blocks blocks on e and accumulates
// them. With alternate set, odd reps are traced and even ones are not, and
// the two kinds are accumulated apart — interleaved, so neither kind gets
// the warmer half of the run.
func streamReps(e *env, res *result, n, blocks int, tr *tracer, alternate bool) (plain, traced tracedRep, err error) {
	for i := 0; i < n; i++ {
		use := tr
		if alternate && i%2 == 0 {
			use = nil
		}
		r, err := oneRep(e, res, i, func() repStats { return runStreamRep(e.sp.name, e.sessions, blocks, use) })
		if err != nil {
			return plain, traced, err
		}
		if use == nil {
			plain.add(r)
		} else {
			traced.add(r)
		}
	}
	return plain, traced, nil
}

// inProcess sets a workload up in this process, runs body on it, runs the
// canaries, tears down, and folds the checks into the ledger.
func (led *ledger) inProcess(sp *spec, o options, l layout, so setupOpts, body func(e *env, res *result) error) error {
	so.local = true
	e, err := setup(sp, o, l, so)
	if err != nil {
		return err
	}
	defer func() {
		if e != nil {
			_ = e.close()
		}
	}()
	res := &result{Workload: sp.name, Correct: true}
	base, err := e.counters()
	if err != nil {
		return err
	}
	if err := body(e, res); err != nil {
		return err
	}
	if err := runCanaries(e, res, base); err != nil {
		return err
	}
	led.absorb(res)
	err = e.close()
	e = nil
	return err
}

// overhead states how much slower (positive) the traced figure is.
func overheadPct(untraced, traced float64) float64 { return 100 * (untraced - traced) / untraced }

// tracedRing runs ring_stream and ring_policy: an untraced and a traced rep
// each, and ring_stream again with metrics and with the flight recorder off.
func (led *ledger) tracedRing(o options, l layout) error {
	for _, name := range []string{"ring_stream", "ring_policy"} {
		sp := specByName(name)
		blocks := scale(o, int(sp.blocksPerSec)/2, 4)
		err := led.inProcess(sp, o, l, setupOpts{}, func(e *env, res *result) error {
			before := e.sys.Stats().Snapshot
			plain, traced, err := streamReps(e, res, 4, blocks, led.tr, true)
			if err != nil {
				return err
			}
			led.cpu[name] = traced.cpuNs()
			led.set("trace.overhead_pct."+name, overheadPct(plain.mps(), traced.mps()), "untraced %.0f msgs/s, traced %.0f msgs/s, two interleaved reps of %d messages each", plain.mps(), traced.mps(), traced.msgs/2)
			if name != "ring_stream" {
				return nil
			}
			self := led.tr.selfTimes()[name]
			led.set("ipc.ring_send_block_ns_per_msg", float64(self["send_block"].SelfNs)/float64(traced.msgs), "send_block span self time over %d messages in %d blocks", traced.msgs, self["send_block"].Spans)
			gw := summarize(traced.gateWaitUs)
			led.set("kernel.gate_wait_p50_us", gw.Median, "gate_wait spans: %s", gw)
			led.set("kernel.gate_wait_p99_us", percentile(traced.gateWaitUs, 0.99), "gate_wait spans: %s", gw)
			var stalls, syscalls uint64
			for _, s := range e.sessions {
				if ks, ok := e.sys.Kernel().Stats(s.pid); ok {
					stalls += ks.SyncStalls
					syscalls += ks.Syscalls
				}
			}
			led.set("kernel.sync_stall_ratio", 100*float64(stalls)/float64(syscalls), "Kernel.Stats: %d of %d gates had to wait", stalls, syscalls)
			snap := e.sys.Stats().Snapshot.Diff(before)
			led.set("verifier.batch_size_mean", snap.Histograms["verifier.batch_size"].Mean(), "telemetry histogram verifier.batch_size over the four reps, %d batches", snap.Histograms["verifier.batch_size"].Count)
			led.set("verifier.queue_depth_mean", snap.Histograms["verifier.queue_depth"].Mean(), "telemetry histogram verifier.queue_depth")
			led.set("verifier.pump_stall_share", 100*float64(snap.Histograms["verifier.pump_stall_ns"].Sum)/float64((plain.wall+traced.wall).Nanoseconds()*int64(len(e.sessions))),
				"Σ verifier.pump_stall_ns over wall time x %d drain loops: share of a drain loop's time spent inside RecvBatch", len(e.sessions))
			return nil
		})
		if err != nil {
			return err
		}
	}

	// ring_stream with one telemetry mechanism off at a time, against the
	// untraced hqd-default rep above's configuration measured here again so
	// the three figures come from adjacent runs.
	sp := specByName("ring_stream")
	blocks := scale(o, int(sp.blocksPerSec), 4)
	rate := func(tweak func(*supervisor.Config)) (float64, error) {
		var mps float64
		err := led.inProcess(sp, o, l, setupOpts{tweak: tweak}, func(e *env, res *result) error {
			r, _, err := streamReps(e, res, 2, blocks, nil, false)
			mps = r.mps()
			return err
		})
		return mps, err
	}
	on, err := rate(nil)
	if err != nil {
		return err
	}
	noMetrics, err := rate(func(c *supervisor.Config) { c.Metrics = nil })
	if err != nil {
		return err
	}
	noFlight, err := rate(func(c *supervisor.Config) { c.FlightRecorder = 0 })
	if err != nil {
		return err
	}
	led.set("telemetry.metrics_overhead_pct", overheadPct(noMetrics, on), "Metrics nil %.0f msgs/s, hqd defaults %.0f msgs/s", noMetrics, on)
	led.set("telemetry.flight_overhead_pct", overheadPct(noFlight, on), "FlightRecorder 0 %.0f msgs/s, hqd defaults %.0f msgs/s", noFlight, on)
	return nil
}

// connCounter counts the calls and bytes crossing the sessions' connections.
type connCounter struct {
	writes, writeBytes, reads, readBytes atomic.Uint64
}

type countedConn struct {
	net.Conn
	c *connCounter
}

func (c countedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.c.writes.Add(1)
	c.c.writeBytes.Add(uint64(n))
	return n, err
}

func (c countedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.c.reads.Add(1)
	c.c.readBytes.Add(uint64(n))
	return n, err
}

func (cc *connCounter) wrap(c net.Conn) net.Conn { return countedConn{Conn: c, c: cc} }

func (cc *connCounter) snapshot() [4]float64 {
	return [4]float64{float64(cc.writes.Load()), float64(cc.writeBytes.Load()), float64(cc.reads.Load()), float64(cc.readBytes.Load())}
}

// tracedNetStream runs net_stream against an in-process daemon: untraced,
// traced with the connection counter, over TCP, and with a counter-only
// unsealed chain.
func (led *ledger) tracedNetStream(o options, l layout) error {
	sp := specByName("net_stream")
	blocks := scale(o, int(sp.blocksPerSec)/2, 2)
	rep := func(so setupOpts) (tracedRep, error) {
		var out tracedRep
		err := led.inProcess(sp, o, l, so, func(e *env, res *result) error {
			var err error
			out, _, err = streamReps(e, res, 2, blocks, nil, false)
			return err
		})
		return out, err
	}
	plain, err := rep(setupOpts{})
	if err != nil {
		return err
	}
	var cc connCounter
	var traced tracedRep
	var io [4]float64 // writes, bytes written, reads, bytes read during the traced rep
	err = led.inProcess(sp, o, l, setupOpts{wrap: cc.wrap}, func(e *env, res *result) error {
		before := cc.snapshot() // set-up and warm-up crossed the connections too
		var err error
		_, traced, err = streamReps(e, res, 2, blocks, led.tr, false)
		for i, v := range cc.snapshot() {
			io[i] = v - before[i]
		}
		return err
	})
	if err != nil {
		return err
	}
	writes, writeBytes, reads, readBytes := io[0], io[1], io[2], io[3]
	msgs := float64(traced.msgs)
	led.cpu[sp.name] = traced.cpuNs()
	led.set("trace.overhead_pct."+sp.name, overheadPct(plain.mps(), traced.mps()), "untraced %.0f msgs/s, traced %.0f msgs/s (spans + connection counter), two reps each on separate daemons", plain.mps(), traced.mps())
	led.set("hqnet.unix_msgs_per_sec", plain.mps(), "in-process daemon, Unix socket, %d messages", plain.msgs)
	self := led.tr.selfTimes()[sp.name]
	led.set("hqnet.client_send_ns_per_msg", float64(self["send_block"].SelfNs)/msgs, "send_block span self time over %d messages in %d blocks", traced.msgs, self["send_block"].Spans)
	led.set("hqnet.writes_per_msg", writes/(msgs+float64(traced.gates)), "client write(2) calls per frame sent (data + gate requests), WrapConn counter")
	led.set("hqnet.bytes_per_write", writeBytes/writes, "WrapConn counter")
	led.set("hqnet.reads_per_kmsg", 1000*reads/msgs, "client read(2) calls per 1000 messages, WrapConn counter")
	led.set("hqnet.acks_per_kmsg", 1000*(readBytes/ipc.MessageSize-float64(traced.gates))/msgs, "daemon frames received other than gate verdicts, per 1000 messages")

	tcp, err := rep(setupOpts{network: "tcp"})
	if err != nil {
		return err
	}
	led.set("hqnet.tcp_msgs_per_sec", tcp.mps(), "in-process daemon, TCP over the loopback interface (not a real link), %d messages", tcp.msgs)
	bare, err := rep(setupOpts{policies: []string{"counter"}})
	if err != nil {
		return err
	}
	led.set("hqnet.counter_only_ns_per_msg", bare.cpuNs(), "CPU ns per message, daemon chain = counter only, unsealed: transport and session with the chain near zero")
	return nil
}

// tracedNetGate runs the ladder against an in-process daemon with the queue
// depth sampled at every gate, the closed-loop round trip, and dial latency.
func (led *ledger) tracedNetGate(o options, l layout) error {
	sp := specByName("net_gate")
	// Enough requests per rung that p99.9 has ten samples beyond it.
	perRung := scale(o, 5200, 64)
	var depthSum, depthN, depthMax int
	var mu sync.Mutex
	var p50Traced float64
	err := led.inProcess(sp, o, l, setupOpts{}, func(e *env, res *result) error {
		probe := func() {
			d := e.d.(*localDaemon).queueDepth()
			mu.Lock()
			depthSum += d
			depthN++
			if d > depthMax {
				depthMax = d
			}
			mu.Unlock()
		}
		maxRate := 0
		for ri, rate := range gateRungs {
			var rs rungStats
			if _, err := oneRep(e, res, ri, func() repStats {
				rs = runGateRung(sp.name, e.sessions, o.seed, rate, perRung, led.tr, probe)
				return rs.repStats
			}); err != nil {
				return err
			}
			lat, late := summarize(rs.latUs), summarize(rs.lateUs)
			note := fmt.Sprintf("due time to verdict: %s; sustained: %t", lat, rs.sustained())
			led.set(fmt.Sprintf("hqnet.gate_open_p50_us.r%d", rate), lat.Median, "%s", note)
			led.set(fmt.Sprintf("hqnet.gate_open_p99_us.r%d", rate), percentile(rs.latUs, 0.99), "%s", note)
			led.set(fmt.Sprintf("hqnet.gate_open_p999_us.r%d", rate), percentile(rs.latUs, 0.999), "%s; p99.9 supported: %t", note, lat.supports(99.9))
			led.set(fmt.Sprintf("hqnet.gen_late_p99_us.r%d", rate), percentile(rs.lateUs, 0.99), "due time to first send: %s", late)
			if rs.sustained() && (ri == 0 || maxRate == gateRungs[ri-1]) {
				maxRate = rate
			}
			if rate == gateRungs[1] {
				p50Traced = lat.Median
			}
		}
		led.set("hqnet.max_sustained_rps", float64(maxRate), "highest rung with >=99%% completed, last-quarter median <= 2x first-quarter, p50 <= 5 ms, and every lower rung sustained")
		led.set("hqnet.queue_depth_mean", float64(depthSum)/float64(depthN), "Server.Conns() queue depth summed over sessions, sampled at %d gates", depthN)
		led.set("hqnet.queue_depth_max", float64(depthMax), "same samples")
		return nil
	})
	if err != nil {
		return err
	}

	// The gated rung once more without spans or probe, for the overhead row.
	err = led.inProcess(sp, o, l, setupOpts{}, func(e *env, res *result) error {
		var rs rungStats
		_, err := oneRep(e, res, 0, func() repStats {
			rs = runGateRung(sp.name, e.sessions, o.seed, gateRungs[1], perRung, nil, nil)
			return rs.repStats
		})
		p50 := median(rs.latUs)
		led.set("trace.overhead_pct."+sp.name, 100*(p50Traced-p50)/p50, "gate p50 at %d req/s/session: untraced %.1f us, traced %.1f us (spans + queue probe)", gateRungs[1], p50, p50Traced)
		return err
	})
	if err != nil {
		return err
	}

	// Closed loop, one session: the bare request round trip.
	err = led.inProcess(sp, o, l, setupOpts{sessions: 1}, func(e *env, res *result) error {
		s := e.sessions[0]
		n := scale(o, 3000, 64)
		rtt := make([]float64, 0, n)
		_, err := oneRep(e, res, 0, func() repStats {
			var st repStats
			t0 := time.Now()
			for i := 0; i < n; i++ {
				t := time.Now()
				s.sendBlock(s.gen.next(), &st)
				s.enterGate(&st)
				rtt = append(rtt, float64(time.Since(t))/1e3)
			}
			st.wall = time.Since(t0)
			return st
		})
		sum := summarize(rtt)
		led.set("hqnet.gate_rtt_closed_p50_us", sum.Median, "%d messages + OpSyscall + gate, one session, closed loop: %s", requestMsgs, sum)
		led.set("hqnet.gate_rtt_closed_p99_us", percentile(rtt, 0.99), "same samples; p99 supported: %t", sum.supports(99))

		var dial []float64
		network, address := e.d.addr()
		for i := 0; i < scale(o, 50, 5); i++ {
			t := time.Now()
			c, derr := hqnet.Dial(context.Background(), hqnet.ClientConfig{Network: network, Addr: address})
			if derr != nil {
				return derr
			}
			dial = append(dial, float64(time.Since(t))/1e3)
			c.Close()
		}
		led.set("hqnet.dial_us", median(dial), "Dial: HELLO, WELCOME, key delivery; median of %d, Unix socket", len(dial))
		return err
	})
	return err
}
