package supervisor

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"herqules/internal/ipc"
)

// parkedReceiver holds its drain inside RecvBatch until release is closed,
// then reports the source closed.
type parkedReceiver struct{ parked, release chan struct{} }

func (r *parkedReceiver) RecvBatch([]ipc.Message) (int, bool, error) {
	close(r.parked)
	<-r.release
	return 0, false, nil
}

// TestAdmitStartsOneDrainPerSource pins what an admission runs: one drain
// goroutine per source, counted by Health.PumpSources, and nothing once the
// sources and their processes are closed. Goroutine counts are bounds that
// must settle, not exact figures: a goroutine left over from an earlier test
// (or the race detector's) may still be exiting while this one runs.
func TestAdmitStartsOneDrainPerSource(t *testing.T) {
	sys := New(Config{})
	defer shutdown(t, sys)
	base := runtime.NumGoroutine()

	const sources = 3
	var procs []*Proc
	var parked []*parkedReceiver
	for i := 0; i < sources; i++ {
		r := &parkedReceiver{parked: make(chan struct{}), release: make(chan struct{})}
		p, err := sys.Admit(r)
		if err != nil {
			t.Fatal(err)
		}
		<-r.parked // inside RecvBatch, on its drain
		procs, parked = append(procs, p), append(parked, r)
	}
	waitGoroutines(t, base+sources)
	if h := sys.Health(); h.PumpSources != sources || h.ActiveProcs != sources {
		t.Errorf("with %d sources parked: %d pump sources, %d active processes", sources, h.PumpSources, h.ActiveProcs)
	}

	for i, r := range parked {
		close(r.release)
		procs[i].Close()
	}
	waitGoroutines(t, base)
	if h := sys.Health(); h.PumpSources != 0 || h.ActiveProcs != 0 {
		t.Errorf("after the sources and processes closed: %d pump sources, %d active processes; want 0, 0", h.PumpSources, h.ActiveProcs)
	}
}

// TestShutdownRacingAdmitsDeliversEverything runs Shutdown while several
// goroutines keep admitting ring-fed processes. Every admission either is
// refused with ErrShutdown or, once its source is closed and Proc.Close has
// returned, has had its whole stream delivered; Shutdown returns only after
// every admitted process is finished, leaving no drain running.
func TestShutdownRacingAdmitsDeliversEverything(t *testing.T) {
	const admitters, stream = 8, 500
	sys := New(Config{KillOnViolation: true, CheckSeq: true})

	var admitted atomic.Int32
	pids := make([][]int32, admitters)
	var wg sync.WaitGroup
	for g := 0; g < admitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i == 10_000 {
					t.Errorf("admitter %d: still admitted after %d processes", g, i)
					return
				}
				ring := ipc.NewSharedRing(64)
				p, err := sys.Admit(ring.Receiver)
				if err != nil {
					ring.Close()
					if !errors.Is(err, ErrShutdown) {
						t.Errorf("admitter %d: err = %v, want ErrShutdown", g, err)
					}
					return
				}
				admitted.Add(1)
				for seq := uint64(1); seq <= stream; seq++ {
					m := ipc.Message{Op: ipc.OpCounterInc, PID: p.PID(), Arg1: 1, Seq: seq}
					if err := ring.Sender.Send(m); err != nil {
						t.Errorf("pid %d: send %d: %v", p.PID(), seq, err)
						break
					}
				}
				ring.Sender.Close()
				p.Close()
				pids[g] = append(pids[g], p.PID())
			}
		}(g)
	}
	for admitted.Load() < admitters {
		runtime.Gosched()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if h := sys.Health(); h.PumpSources != 0 || h.ActiveProcs != 0 {
		t.Errorf("after Shutdown: %d pump sources, %d active processes; want 0, 0", h.PumpSources, h.ActiveProcs)
	}
	wg.Wait()

	rows := make(map[int32]ProcStats)
	for _, r := range sys.ProcStats() {
		rows[r.PID] = r
	}
	finished := 0
	for _, ps := range pids {
		for _, pid := range ps {
			finished++
			if r := rows[pid]; r.Messages != stream || r.State != stateExited {
				t.Errorf("pid %d: row %+v, want %d messages, %q", pid, r, stream, stateExited)
			}
		}
	}
	if st := sys.Stats(); finished != int(admitted.Load()) || st.Finished != uint64(finished) || st.Active != 0 {
		t.Errorf("%d admitted, %d closed; stats finished %d active %d", admitted.Load(), finished, st.Finished, st.Active)
	}
}
