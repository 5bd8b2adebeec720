// Package-level benchmark harness: one testing.B benchmark per table and
// figure of the paper's evaluation, plus ablation benches for the design
// choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The Table/Figure benches report the reproduced headline statistics as
// custom benchmark metrics (geomean relative performance ×1000, counts), so
// a bench run doubles as a regeneration of the paper's results; cmd/hqbench
// prints the full tables.
package herqules

import (
	"strings"
	"testing"

	"fmt"

	"herqules/internal/compiler"
	"herqules/internal/experiments"
	"herqules/internal/ipc"
	"herqules/internal/policy"
	"herqules/internal/ripe"
	"herqules/internal/sim"
	"herqules/internal/supervisor"
	"herqules/internal/telemetry"
	"herqules/internal/verifier"
	"herqules/internal/workload"
)

// ---------------------------------------------------------------------------
// Table 2 — IPC primitive send times
// ---------------------------------------------------------------------------

func benchmarkChannelSend(b *testing.B, ch *ipc.Channel) {
	b.Helper()
	go func() {
		for {
			if _, ok, err := ipc.RecvOne(ch.Receiver); !ok || err != nil {
				return
			}
		}
	}()
	m := ipc.Message{Op: ipc.OpPointerDefine, Arg1: 1, Arg2: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ch.Sender.Send(m); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ch.Close()
}

func BenchmarkTable2_SharedMemory(b *testing.B) {
	benchmarkChannelSend(b, ipc.NewSharedRing(1<<16))
}

func BenchmarkTable2_MessageQueue(b *testing.B) {
	benchmarkChannelSend(b, ipc.NewMessageQueue())
}

func BenchmarkTable2_Pipe(b *testing.B) {
	benchmarkChannelSend(b, ipc.NewPipe())
}

func BenchmarkTable2_Socket(b *testing.B) {
	benchmarkChannelSend(b, ipc.NewSocket())
}

func BenchmarkTable2_AppendWriteFPGA(b *testing.B) {
	ch, err := NewChannel(FPGA)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkChannelSend(b, ch)
}

func BenchmarkTable2_AppendWriteUArch(b *testing.B) {
	ch, err := NewChannel(UArchSim)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkChannelSend(b, ch)
}

// ---------------------------------------------------------------------------
// Table 4 — correctness classification
// ---------------------------------------------------------------------------

func BenchmarkTable4_Correctness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table4(workload.ScaleTest)
		for _, r := range rows {
			if r.Label == "HQ-CFI" {
				b.ReportMetric(float64(r.OK), "hq-ok")
				b.ReportMetric(float64(r.FalsePositives), "hq-false-positives")
			}
			if r.Label == "CCFI" {
				b.ReportMetric(float64(r.FalsePositives), "ccfi-false-positives")
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Table 5 — RIPE effectiveness
// ---------------------------------------------------------------------------

func BenchmarkTable5_RIPE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range []compiler.Design{compiler.Baseline, compiler.HQSfeStk, compiler.HQRetPtr} {
			tab, err := ripe.RunSuite(d, ripe.Suite())
			if err != nil {
				b.Fatal(err)
			}
			switch d {
			case compiler.Baseline:
				b.ReportMetric(float64(tab.Total), "baseline-exploits")
			case compiler.HQSfeStk:
				b.ReportMetric(float64(tab.Total), "sfestk-exploits")
			case compiler.HQRetPtr:
				b.ReportMetric(float64(tab.Total), "retptr-exploits")
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Figures 3/4/5 — performance series
// ---------------------------------------------------------------------------

func BenchmarkFigure3_IPCPrimitives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Figure3(workload.ScaleTest)
		for _, s := range series {
			b.ReportMetric(s.GeoMean*1000, metricUnit(s.Label))
		}
	}
}

func BenchmarkFigure4_ModelVsSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Figure4()
		for _, s := range series {
			b.ReportMetric(s.GeoMean*1000, metricUnit(s.Label))
		}
	}
}

func BenchmarkFigure5_CFIDesigns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Figure5(workload.ScaleTest)
		for _, s := range series {
			b.ReportMetric(s.SPECGeoMean*1000, metricUnit(s.Label))
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md)
// ---------------------------------------------------------------------------

// runMonitored executes one benchmark under HQ-CFI-SfeStk with the given
// pipeline options and returns modelled cycles.
func runMonitored(b *testing.B, p *workload.Profile, opts compiler.Options, cost *sim.CostModel) uint64 {
	b.Helper()
	opts.Allowlist = p.Allowlist()
	ins, err := compiler.Instrument(p.Build(workload.ScaleTest), compiler.HQSfeStk, opts)
	if err != nil {
		b.Fatal(err)
	}
	out, err := supervisor.Run(supervisor.Config{}, ins, supervisor.LaunchOptions{Inline: true, ContinueChecks: true, Cost: cost})
	if err != nil || out.Err != nil {
		b.Fatalf("run: %v %v", err, out.Err)
	}
	return out.Stats.Cycles
}

func modelCost() *sim.CostModel {
	return sim.Default().WithMessaging(sim.MessageCost(8))
}

// BenchmarkAblation_SyncStrategy compares the paper's pipelined System-Call
// message (§2.2) against a naive kernel↔verifier round trip per system call,
// modelled as the full syscall latency added per gated call.
func BenchmarkAblation_SyncStrategy(b *testing.B) {
	p := workload.ByName("nginx")
	for i := 0; i < b.N; i++ {
		pipelined := modelCost()
		cycles := runMonitored(b, p, compiler.DefaultOptions(), pipelined)
		naive := modelCost()
		naive.SyncStall += naive.Syscall // a full round trip per syscall
		cyclesNaive := runMonitored(b, p, compiler.DefaultOptions(), naive)
		b.ReportMetric(float64(cyclesNaive)/float64(cycles)*1000, "naive-vs-pipelined-x1000")
	}
}

// BenchmarkAblation_Optimizations measures store-to-load forwarding and
// message elision: messages sent with and without them.
func BenchmarkAblation_Optimizations(b *testing.B) {
	p := workload.ByName("xalancbmk") // devirtualizable dispatch + dense checks
	for i := 0; i < b.N; i++ {
		on := compiler.DefaultOptions()
		off := compiler.DefaultOptions()
		off.Optimize = false
		off.InterProcForwarding = false
		cOn := runMonitored(b, p, on, modelCost())
		cOff := runMonitored(b, p, off, modelCost())
		b.ReportMetric(float64(cOff)/float64(cOn)*1000, "unoptimized-vs-optimized-x1000")
	}
}

// BenchmarkAblation_Devirtualization measures the C++ devirtualization
// bundle on a vtable-heavy benchmark.
func BenchmarkAblation_Devirtualization(b *testing.B) {
	p := workload.ByName("xalancbmk")
	for i := 0; i < b.N; i++ {
		on := compiler.DefaultOptions()
		off := compiler.DefaultOptions()
		off.Devirtualize = false
		cOn := runMonitored(b, p, on, modelCost())
		cOff := runMonitored(b, p, off, modelCost())
		b.ReportMetric(float64(cOff)/float64(cOn)*1000, "nodevirt-vs-devirt-x1000")
	}
}

// BenchmarkAblation_ReadOnlySyncElision measures the §5.3.3 future-work
// optimization: skipping synchronization messages and kernel gating for
// read-only system calls, on a syscall-dense benchmark.
func BenchmarkAblation_ReadOnlySyncElision(b *testing.B) {
	p := workload.ByName("gcc") // syscall every 32 iterations
	for i := 0; i < b.N; i++ {
		off := compiler.DefaultOptions()
		on := compiler.DefaultOptions()
		on.ElideReadOnlySyncs = true
		cOff := runMonitored(b, p, off, modelCost())
		cOn := runMonitored(b, p, on, modelCost())
		b.ReportMetric(float64(cOff)/float64(cOn)*1000, "gated-vs-elided-x1000")
	}
}

// BenchmarkAblation_SubtypeChecking compares strict subtype checking (plus
// allowlist) against conservative instrumentation of every block operation.
func BenchmarkAblation_SubtypeChecking(b *testing.B) {
	p := workload.ByName("bzip2") // block-op heavy, types statically clean
	for i := 0; i < b.N; i++ {
		strict := compiler.DefaultOptions()
		loose := compiler.DefaultOptions()
		loose.StrictSubtype = false
		cStrict := runMonitored(b, p, strict, modelCost())
		cLoose := runMonitored(b, p, loose, modelCost())
		b.ReportMetric(float64(cLoose)/float64(cStrict)*1000, "conservative-vs-strict-x1000")
	}
}

// BenchmarkAblation_MessageSize sweeps AppendWrite throughput across ring
// capacities on the µarch hardware channel.
func BenchmarkAblation_MessageSize(b *testing.B) {
	for _, slots := range []int{64, 1024, 16384} {
		b.Run(sizeName(slots), func(b *testing.B) {
			ch, err := NewChannel(UArchModel)
			if err != nil {
				b.Fatal(err)
			}
			_ = slots // capacity fixed by NewChannel; ring variant below
			benchmarkChannelSend(b, ch)
		})
	}
	for _, slots := range []int{64, 1024, 16384} {
		b.Run("ring-"+sizeName(slots), func(b *testing.B) {
			benchmarkChannelSend(b, ipc.NewSharedRing(slots))
		})
	}
}

// metricUnit builds a whitespace-free unit name (ReportMetric requirement).
func metricUnit(label string) string {
	return strings.ReplaceAll(label, " ", "-") + "-geomean-x1000"
}

func sizeName(n int) string {
	switch {
	case n >= 1<<14:
		return "16k"
	case n >= 1<<10:
		return "1k"
	default:
		return "64"
	}
}

// ---------------------------------------------------------------------------
// Verifier drain throughput — scalar pump vs the batch-draining Pump
// ---------------------------------------------------------------------------

// verifierBenchPolicies is the per-process policy mix the drain benches
// evaluate: the CFI pointer policy plus the counter (the HQ-CFI hot path).
func verifierBenchPolicies() []policy.Policy {
	return []policy.Policy{policy.NewCFI(), policy.NewCounter()}
}

// verifierBenchStream interleaves define/check/invalidate triples from procs
// processes at scheduler-quantum granularity, with per-process consecutive
// sequence numbers so CheckSeq runs in every configuration.
func verifierBenchStream(procs, messages int) []ipc.Message {
	const quantum = 16
	msgs := make([]ipc.Message, 0, messages)
	seqs := make([]uint64, procs+1)
	for q := 0; len(msgs) < messages; q++ {
		pid := int32(1 + q%procs)
		for t := 0; t < quantum && len(msgs) < messages; t++ {
			i := q*quantum + t
			addr := uint64(0x1000 + 8*((i/procs)%4096))
			for _, op := range [...]ipc.Op{ipc.OpPointerDefine, ipc.OpPointerCheck, ipc.OpPointerInvalidate} {
				seqs[pid]++
				msgs = append(msgs, ipc.Message{Op: op, PID: pid, Arg1: addr, Arg2: addr + 1, Seq: seqs[pid]})
				if len(msgs) == messages {
					break
				}
			}
		}
	}
	return msgs
}

// benchVerifierDrain replays an identical pre-recorded stream through the
// requested pump and reports sustained messages/sec. Telemetry is enabled,
// as in production, so these numbers include the instrumentation cost the
// telemetry layer must keep under its overhead budget.
func benchVerifierDrain(b *testing.B, procs, shards int, scalar bool) {
	b.Helper()
	const messages = 1 << 18
	stream := verifierBenchStream(procs, messages)
	r := ipc.NewReplay(stream)
	tm := telemetry.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		v := verifier.NewSharded(verifierBenchPolicies, nil, shards)
		v.CheckSeq = true
		v.EnableTelemetry(tm)
		for pid := 1; pid <= procs; pid++ {
			v.ProcessStarted(int32(pid))
		}
		r.Rewind()
		b.StartTimer()
		if scalar {
			for m, ok, _ := ipc.RecvOne(r); ok; m, ok, _ = ipc.RecvOne(r) {
				v.Deliver(m)
			}
		} else {
			v.Pump(r)
		}
	}
	b.ReportMetric(float64(messages)*float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
}

// BenchmarkVerifierThroughput_* measure Pump at the default shard count
// (GOMAXPROCS) over replayed 1/4/16-process streams. A replay is one source,
// so one goroutine reads and evaluates it whatever -cpu says.
func BenchmarkVerifierThroughput_1Procs(b *testing.B)  { benchVerifierDrain(b, 1, 0, false) }
func BenchmarkVerifierThroughput_4Procs(b *testing.B)  { benchVerifierDrain(b, 4, 0, false) }
func BenchmarkVerifierThroughput_16Procs(b *testing.B) { benchVerifierDrain(b, 16, 0, false) }

// BenchmarkVerifierThroughput_Ring drives the pump from a live SharedRing
// producer instead of a prerecorded replay, so it exercises the ring's
// RecvBatch (wrap-around bulk copy, empty-ring backoff) with real
// producer/consumer contention. The ring
// assigns its own consecutive sequence numbers on Send, so a single producer
// process keeps CheckSeq satisfied.
func BenchmarkVerifierThroughput_Ring(b *testing.B) {
	const messages = 1 << 18
	stream := verifierBenchStream(1, messages)
	tm := telemetry.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		v := verifier.NewSharded(verifierBenchPolicies, nil, 0)
		v.CheckSeq = true
		v.EnableTelemetry(tm)
		v.ProcessStarted(1)
		ch := ipc.NewSharedRing(1 << 14)
		b.StartTimer()
		go func() {
			for _, m := range stream {
				_ = ch.Sender.Send(m)
			}
			_ = ch.Sender.Close()
		}()
		v.Pump(ch.Receiver)
	}
	b.ReportMetric(float64(messages)*float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
}

// BenchmarkVerifierDrain pits the scalar loop (a one-slot RecvBatch + one
// Deliver per message, the pre-sharding design) against Pump on the same
// multi-process stream; the msgs/sec ratio is the batching speedup.
func BenchmarkVerifierDrain(b *testing.B) {
	for _, procs := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("scalar-%dprocs", procs), func(b *testing.B) {
			benchVerifierDrain(b, procs, 1, true)
		})
		b.Run(fmt.Sprintf("batch-%dprocs", procs), func(b *testing.B) {
			benchVerifierDrain(b, procs, 0, false)
		})
	}
}

// ---------------------------------------------------------------------------
// The sealed chain through DeliverBatch
// ---------------------------------------------------------------------------

// sealedChain starts a one-shard verifier with CheckSeq on over the named
// chain (which holds hmac) for one process, and returns it with a function
// that seals ms at the stream's next positions, untimed, and then delivers it
// in DefaultBatchSize batches with b's timer running.
func sealedChain(b *testing.B, pid int32, names ...string) (*verifier.Verifier, func(ms []ipc.Message)) {
	factory, err := policy.SetFactory(names...)
	if err != nil {
		b.Fatal(err)
	}
	kr := policy.NewKeyringSeeded(1)
	kr.Program(pid)
	key, _ := kr.Key(pid)
	v := verifier.NewSharded(factory, nil, 1)
	v.CheckSeq = true
	v.SetKeyring(kr)
	v.ProcessStarted(pid)
	sent := uint64(0)
	return v, func(ms []ipc.Message) {
		for i := range ms {
			sent++
			ms[i].Seq = sent
			ms[i].Mac = ipc.MacSeal(key, ms[i], sent)
		}
		b.StartTimer()
		for i := 0; i < len(ms); i += verifier.DefaultBatchSize {
			v.DeliverBatch(ms[i:min(i+verifier.DefaultBatchSize, len(ms))])
		}
		b.StopTimer()
	}
}

// BenchmarkDeliverHotChain runs hqd's chain (the default set behind the hmac
// sealer) over a hot mix — pointer define, check, redefine and invalidate over
// 4096 slots, every table cache-resident — and reports ns per message: what
// the window, the two-lane unseal and the op routing cost when no policy
// misses the cache. It is the in-tree stand-in for the ledger's
// verifier.deliver_hot_hqd_ns_per_msg, and -benchmem shows the path allocates
// nothing.
func BenchmarkDeliverHotChain(b *testing.B) {
	const (
		pid   = 1
		slots = 4096
		n     = 1 << 16
	)
	// A slot's value never changes, and a slot's first message in the stream
	// is a define, so the stream can be delivered any number of times.
	val := func(s uint64) uint64 { return s*0x9e3779b97f4a7c15 | 1 }
	stream := make([]ipc.Message, 0, n)
	var defined [slots]bool
	for x := uint64(1); len(stream) < n; {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		r := x * 0x2545f4914f6cdd1d
		s, pick := r>>8%slots, r%10
		m := ipc.Message{Op: ipc.OpPointerCheck, PID: pid, Arg1: 0x7f00_0000_0000 + 8*s, Arg2: val(s)}
		switch {
		case !defined[s] || pick >= 6 && pick < 8:
			m.Op, defined[s] = ipc.OpPointerDefine, true
		case pick >= 8:
			m.Op, defined[s] = ipc.OpPointerInvalidate, false
		}
		stream = append(stream, m)
	}
	v, deliver := sealedChain(b, pid, append(append([]string{}, policy.DefaultSet...), "hmac")...)
	b.ReportAllocs()
	b.StopTimer()
	deliver(stream) // the pointer table reaches its size
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		deliver(stream)
	}
	if viol := v.Violations(pid); len(viol) > 0 {
		b.Fatalf("clean stream flagged: %v", viol[0])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/msg")
}

// ---------------------------------------------------------------------------
// Policy chain at realistic state size
// ---------------------------------------------------------------------------

// BenchmarkPolicyChainLargeState runs the full sealed chain (cfi, memsafety,
// counter, dfi, temporal, hmac) through DeliverBatch for one process holding
// 266 k metadata entries — pointer and last-writer tables well past the cache,
// two thousand live allocations churning over as many tombstones — and
// reports ns per message. It is the quick stand-in for `go run ./bench
// -workload ring_policy`: the hot-path benches above keep every table
// cache-resident, which hides exactly the costs this state size exposes
// (interval-table shifts, one DRAM miss per lookup).
func BenchmarkPolicyChainLargeState(b *testing.B) {
	const (
		pid      = 1
		ptrs     = 196608
		dfiAddrs = 65536
		slots    = 4096 // allocation slots; even ones are live between blocks
		writers  = 64   // DFI stores, four per reaching set
		steady   = 1 << 18
	)
	ptr := func(i uint64) uint64 { return 0x7f00_0000_0000 + 8*i }
	val := func(i uint64) uint64 { return i*0x9e3779b97f4a7c15 | 1 }
	dfi := func(i uint64) uint64 { return 0x6000_0000_0000 + 8*i }
	writer := func(i uint64) uint64 { return 1 + (i*0x9e3779b97f4a7c15>>32)%writers }
	alloc := func(s uint64) uint64 { return 0x5500_0000_0000 + 256*s }

	var prefill []ipc.Message
	add := func(ms *[]ipc.Message, op ipc.Op, a1, a2 uint64) {
		*ms = append(*ms, ipc.Message{Op: op, PID: pid, Arg1: a1, Arg2: a2})
	}
	for i := uint64(0); i < ptrs; i++ {
		add(&prefill, ipc.OpPointerDefine, ptr(i), val(i))
	}
	for w := uint64(1); w <= writers; w++ {
		add(&prefill, ipc.OpDFIDeclare, (w-1)/4, w)
	}
	for i := uint64(0); i < dfiAddrs; i++ {
		add(&prefill, ipc.OpDFISet, dfi(i), writer(i))
	}
	for s := uint64(0); s < slots; s += 2 {
		add(&prefill, ipc.OpAllocCreate, alloc(s), 128)
	}
	// The steady stream leaves the state as it found it (destructive ops come
	// as adjacent pairs), so it can be delivered any number of times.
	run := make([]ipc.Message, 0, steady+1)
	for x := uint64(1); len(run) < steady; {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		r := x * 0x2545f4914f6cdd1d
		pick, i := r%100, r>>8
		switch {
		case pick < 40:
			add(&run, ipc.OpPointerCheck, ptr(i%ptrs), val(i%ptrs))
		case pick < 50:
			add(&run, ipc.OpPointerDefine, ptr(i%ptrs), val(i%ptrs))
		case pick < 60:
			add(&run, ipc.OpPointerCheckInvalidate, ptr(i%ptrs), val(i%ptrs))
			add(&run, ipc.OpPointerDefine, ptr(i%ptrs), val(i%ptrs))
		case pick < 72:
			add(&run, ipc.OpDFISet, dfi(i%dfiAddrs), writer(i%dfiAddrs))
		case pick < 84:
			add(&run, ipc.OpDFICheck, dfi(i%dfiAddrs), (writer(i%dfiAddrs)-1)/4)
		case pick < 92:
			add(&run, ipc.OpAllocCheck, alloc(2*(i%(slots/2)))+(i>>32)%128, 0)
		case pick < 94: // live slot: free, reallocate
			add(&run, ipc.OpAllocDestroy, alloc(2*(i%(slots/2))), 0)
			add(&run, ipc.OpAllocCreate, alloc(2*(i%(slots/2))), 128)
		case pick < 96: // free slot: allocate, free
			add(&run, ipc.OpAllocCreate, alloc(2*(i%(slots/2))+1), 128)
			add(&run, ipc.OpAllocDestroy, alloc(2*(i%(slots/2))+1), 0)
		default:
			add(&run, ipc.OpCounterInc, i%64, 0)
		}
	}

	v, deliver := sealedChain(b, pid, "cfi", "memsafety", "counter", "dfi", "temporal", "hmac")
	b.StopTimer()
	deliver(prefill)
	deliver(run) // warm-up pass: tombstones reach their steady population
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		deliver(run)
	}
	if viol := v.Violations(pid); len(viol) > 0 {
		b.Fatalf("clean stream flagged: %v", viol[0])
	}
	if got, _ := v.Entries(pid); got != ptrs+dfiAddrs+2*(slots/2)+64 {
		want := ptrs + dfiAddrs + 2*(slots/2) + 64
		b.Fatalf("verifier holds %d entries, want %d", got, want)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(run)), "ns/msg")
}
