package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/verifier"
)

// The scaling ladder measures how verifier throughput responds to the shard
// count, per backend, holding the workload fixed. It answers the question
// the single-point throughput experiment cannot: where does adding shards
// stop paying? On a box with GOMAXPROCS=1 the whole ladder should be flat
// (or gently declining: more shards mean more queues and more worker
// context switches for zero extra parallelism) — which is itself the result
// worth recording, because it shows the per-shard overhead the sharding
// design adds when the parallelism it buys is absent.

// ScalingRow is one rung: a fixed multi-process stream drained through a
// pipeline with Shards shards on the named backend.
type ScalingRow struct {
	Backend    string        `json:"backend"` // "replay" or "ring"
	Shards     int           `json:"shards"`
	Procs      int           `json:"procs"`
	Messages   int           `json:"messages"`
	ElapsedNs  int64         `json:"elapsed_ns"`
	MsgsPerSec float64       `json:"msgs_per_sec"`
	Elapsed    time.Duration `json:"-"`
}

// ScalingReport is the JSON artifact `hqbench -exp scaling` writes: the
// ladder plus the environment facts needed to interpret it later.
type ScalingReport struct {
	GOMAXPROCS int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Procs      int          `json:"procs"`
	Messages   int          `json:"messages"`
	Reps       int          `json:"reps"`
	Rows       []ScalingRow `json:"rows"`
}

// scalingShardLadder is the swept shard counts.
var scalingShardLadder = []int{1, 2, 4, 8}

// scalingProcs fixes the monitored-process count: enough processes that
// every rung of the ladder has work for all its shards (8 procs spread over
// 8 shards by the PID hash), kept constant so rungs differ only in shards.
const scalingProcs = 8

// Scaling runs the ladder: for each backend and each shard count, drain the
// same messages-long stream and record the best-of-reps rate. messages <= 0
// selects 1<<20; reps <= 0 selects the throughput experiment's best-of-3.
//
// The replay backend replays one prerecorded interleaved stream through a
// single Pump — an upper bound free of producer cost. The ring backend runs
// one live SharedRing producer per process into a PumpSet — the production
// shape, where producers compete with the verifier for cores and each ring
// gets its own drain loop.
func Scaling(messages, reps int) ScalingReport {
	if messages <= 0 {
		messages = 1 << 20
	}
	if reps <= 0 {
		reps = throughputReps
	}
	rep := ScalingReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Procs:      scalingProcs,
		Messages:   messages,
		Reps:       reps,
	}
	stream := throughputStream(scalingProcs, messages)
	// Per-process streams for the ring backend: same op mix and per-PID
	// sequence ordering as the interleaved stream, one slice per producer.
	perProc := make([][]ipc.Message, scalingProcs+1)
	for _, m := range stream {
		perProc[m.PID] = append(perProc[m.PID], m)
	}

	mk := func(shards int) *verifier.Verifier {
		v := verifier.NewSharded(throughputPolicies, nil, shards)
		v.CheckSeq = true
		for pid := 1; pid <= scalingProcs; pid++ {
			v.ProcessStarted(int32(pid))
		}
		return v
	}

	for _, backend := range []string{"replay", "ring"} {
		for _, shards := range scalingShardLadder {
			var best time.Duration
			for r := 0; r < reps; r++ {
				var elapsed time.Duration
				switch backend {
				case "replay":
					v := mk(shards)
					replay := ipc.NewReplay(stream)
					start := time.Now()
					v.Pump(replay)
					elapsed = time.Since(start)
				case "ring":
					v := mk(shards)
					ps := v.NewPumpSet()
					start := time.Now()
					var producers sync.WaitGroup
					for pid := 1; pid <= scalingProcs; pid++ {
						ch := ipc.NewSharedRing(1 << 12)
						if _, err := ps.Attach(ch.Receiver); err != nil {
							panic(err) // unreachable: set not closed
						}
						producers.Add(1)
						go func(msgs []ipc.Message, s ipc.Sender) {
							defer producers.Done()
							for _, m := range msgs {
								_ = s.Send(m)
							}
							_ = s.Close()
						}(perProc[pid], ch.Sender)
					}
					producers.Wait()
					ps.Close()
					elapsed = time.Since(start)
				}
				if r == 0 || elapsed < best {
					best = elapsed
				}
			}
			rep.Rows = append(rep.Rows, ScalingRow{
				Backend: backend, Shards: shards, Procs: scalingProcs,
				Messages: messages, Elapsed: best, ElapsedNs: best.Nanoseconds(),
				MsgsPerSec: float64(messages) / best.Seconds(),
			})
		}
	}
	return rep
}

// FormatScaling renders the ladder with per-backend speedup relative to the
// backend's own 1-shard rung, which is the number that shows where shard
// scaling saturates.
func FormatScaling(rep ScalingReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scaling ladder: %d procs, %d msgs, best of %d, GOMAXPROCS=%d\n",
		rep.Procs, rep.Messages, rep.Reps, rep.GOMAXPROCS)
	fmt.Fprintf(&sb, "%-8s %-7s %12s %12s %10s\n",
		"Backend", "Shards", "Messages", "Msgs/sec", "vs 1shard")
	base := map[string]float64{}
	for _, r := range rep.Rows {
		if r.Shards == 1 {
			base[r.Backend] = r.MsgsPerSec
		}
		rel := "-"
		if b := base[r.Backend]; b > 0 {
			rel = fmt.Sprintf("%.2fx", r.MsgsPerSec/b)
		}
		fmt.Fprintf(&sb, "%-8s %-7d %12d %12.0f %10s\n",
			r.Backend, r.Shards, r.Messages, r.MsgsPerSec, rel)
	}
	return sb.String()
}
