package experiments

import (
	"fmt"
	"strings"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/policy"
	"herqules/internal/sim"
	"herqules/internal/verifier"
)

// ThroughputRow is one measurement of the verifier drain rate: a message
// stream from Procs monitored processes drained by either the scalar
// reference loop (a one-slot RecvBatch + one Deliver per message, the
// pre-sharding design) or the sharded batch pipeline.
type ThroughputRow struct {
	Procs      int
	Mode       string // "scalar" or "sharded-batch"
	Shards     int
	Batch      int
	Messages   int
	Elapsed    time.Duration
	MsgsPerSec float64
}

// throughputPolicies is the per-process policy set the drain benchmark
// evaluates: the §4.1 CFI policy plus the §2 counter.
func throughputPolicies() []policy.Policy {
	return []policy.Policy{policy.NewCFI(), policy.NewCounter()}
}

// throughputStream builds an interleaved multi-process message stream:
// pointer define/check/invalidate triples (the HQ-CFI hot mix) with
// per-process consecutive sequence counters, so CheckSeq runs in both modes.
// Processes alternate at scheduler-quantum granularity — a monitored program
// emits a long run of messages per timeslice, so the stream interleaves runs
// of streamQuantum triples rather than single messages.
const streamQuantum = 16

func throughputStream(procs, messages int) []ipc.Message {
	msgs := make([]ipc.Message, 0, messages)
	seqs := make([]uint64, procs+1)
	for q := 0; len(msgs) < messages; q++ {
		pid := int32(1 + q%procs)
		for t := 0; t < streamQuantum && len(msgs) < messages; t++ {
			i := q*streamQuantum + t
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

// throughputReps is how many times each configuration is drained; the
// fastest run is reported. The measurement is a pure CPU loop, so the best
// of a few repetitions is the run least disturbed by scheduler noise.
const throughputReps = 3

// Throughput measures verifier messages/sec for each process count, scalar
// vs sharded-batch, over identical replayed streams. shards and batch <= 0
// select the verifier defaults (GOMAXPROCS shards, DefaultBatchSize).
func Throughput(messages int, procCounts []int, shards, batch int) []ThroughputRow {
	if messages <= 0 {
		messages = 1 << 20
	}
	if len(procCounts) == 0 {
		procCounts = []int{1, 4, 16}
	}
	var rows []ThroughputRow
	for _, procs := range procCounts {
		stream := throughputStream(procs, messages)

		mk := func(n int) *verifier.Verifier {
			v := verifier.NewSharded(throughputPolicies, nil, n)
			v.CheckSeq = true
			if batch > 0 {
				v.BatchSize = batch
			}
			for pid := 1; pid <= procs; pid++ {
				v.ProcessStarted(int32(pid))
			}
			return v
		}

		r := ipc.NewReplay(stream)
		best := func(nshards int, pump func(v *verifier.Verifier)) (time.Duration, *verifier.Verifier) {
			var minElapsed time.Duration
			var last *verifier.Verifier
			for rep := 0; rep < throughputReps; rep++ {
				// Fresh verifier per rep: policy state grows with the
				// stream, and reusing it would make later reps cheaper.
				v := mk(nshards)
				r.Rewind()
				start := time.Now()
				pump(v)
				elapsed := time.Since(start)
				if rep == 0 || elapsed < minElapsed {
					minElapsed = elapsed
				}
				last = v
			}
			return minElapsed, last
		}

		// Scalar baseline: single shard, one one-slot RecvBatch and one
		// Deliver per message, no pipeline (the loop the verifier's test
		// oracle keeps as its reference).
		bestScalar, _ := best(1, func(v *verifier.Verifier) {
			for m, ok, _ := ipc.RecvOne(r); ok; m, ok, _ = ipc.RecvOne(r) {
				v.Deliver(m)
			}
		})
		rows = append(rows, ThroughputRow{
			Procs: procs, Mode: "scalar", Shards: 1, Batch: 1,
			Messages: messages, Elapsed: bestScalar,
			MsgsPerSec: float64(messages) / bestScalar.Seconds(),
		})

		// Sharded batch pipeline.
		elapsed, vb := best(shards, func(v *verifier.Verifier) { v.Pump(r) })
		b := vb.BatchSize
		if b == 0 {
			b = verifier.DefaultBatchSize
		}
		rows = append(rows, ThroughputRow{
			Procs: procs, Mode: "sharded-batch", Shards: vb.Shards(), Batch: b,
			Messages: messages, Elapsed: elapsed,
			MsgsPerSec: float64(messages) / elapsed.Seconds(),
		})
	}
	return rows
}

// FormatThroughput renders the rows plus the model's predicted amortization
// for the shared-memory drain path, so measured and modelled speedups can be
// compared at a glance.
func FormatThroughput(rows []ThroughputRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %-14s %-7s %-6s %12s %12s %10s\n",
		"Procs", "Mode", "Shards", "Batch", "Messages", "Msgs/sec", "Speedup")
	var scalarRate float64
	for _, r := range rows {
		speedup := "-"
		if r.Mode == "scalar" {
			scalarRate = r.MsgsPerSec
		} else if scalarRate > 0 {
			speedup = fmt.Sprintf("%.2fx", r.MsgsPerSec/scalarRate)
		}
		fmt.Fprintf(&sb, "%-6d %-14s %-7d %-6d %12d %12.0f %10s\n",
			r.Procs, r.Mode, r.Shards, r.Batch, r.Messages, r.MsgsPerSec, speedup)
	}
	scalarNs := sim.BatchRecvNanos(sim.RecvBurstOverheadNanosShared, 1)
	batchNs := sim.BatchRecvNanos(sim.RecvBurstOverheadNanosShared, verifier.DefaultBatchSize)
	fmt.Fprintf(&sb, "model: shared-memory drain %.1f ns/msg scalar vs %.1f ns/msg batched (%.2fx)\n",
		scalarNs, batchNs, scalarNs/batchNs)
	return sb.String()
}
