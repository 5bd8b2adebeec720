package experiments

import (
	"fmt"
	"strings"
	"time"

	"herqules/internal/fpga"
	"herqules/internal/ipc"
	"herqules/internal/mem"
	"herqules/internal/uarch"
)

// IPCRow is one row of Table 2.
type IPCRow struct {
	Name            string
	AppendOnly      bool
	AsyncValidation bool
	PrimaryCost     string
	// PaperNanos is the send latency the paper reports (the value the
	// deterministic performance model uses).
	PaperNanos float64
	// MeasuredNanos is this host's measured per-send wall-clock time for
	// the Go implementation (hardware-modelled primitives report the
	// model cost instead; see Modeled).
	MeasuredNanos float64
	// Modeled marks rows whose measured value is the model itself (the
	// two AppendWrite hardware designs and light-weight contexts).
	Modeled bool
}

// Table2 measures/models the send cost of every IPC primitive.
func Table2(sendsPerPrimitive int) []IPCRow {
	if sendsPerPrimitive <= 0 {
		sendsPerPrimitive = 20000
	}
	rows := []IPCRow{}

	// add measures n sends over ch. modeled marks the hardware primitives,
	// whose measured figure is the cost of the Go object that models them.
	add := func(ch *ipc.Channel, n int, modeled bool) {
		rows = append(rows, IPCRow{
			Name:            ch.Props.Name,
			AppendOnly:      ch.Props.AppendOnly,
			AsyncValidation: ch.Props.AsyncValidation,
			PrimaryCost:     ch.Props.PrimaryCost,
			PaperNanos:      ch.Props.SendNanos,
			MeasuredNanos:   measureSend(ch, n),
			Modeled:         modeled,
		})
	}

	add(ipc.NewMessageQueue(), sendsPerPrimitive, false)
	add(ipc.NewPipe(), sendsPerPrimitive, false)
	add(ipc.NewSocket(), sendsPerPrimitive, false)
	add(ipc.NewSharedRing(1<<16), sendsPerPrimitive, false)

	// Light-weight contexts: each send costs two modelled context
	// switches; measure a few to confirm the model, then report it.
	add(ipc.NewLWC(), 200, true)

	// AppendWrite-FPGA: the Go object measures the functional model; the
	// PCIe/MMIO latency is the modelled figure.
	fch, _ := fpga.New(1 << 16)
	add(fch, sendsPerPrimitive, true)

	// AppendWrite-µarch: hardware semantics over the simulated MMU.
	uch, _, err := uarch.New(mem.New(), 0x7f00_0000_0000, 1<<16*uint64(ipc.MessageSize))
	if err == nil {
		add(uch, sendsPerPrimitive/4, true)
	}
	return rows
}

// measureSend times n sends with a concurrently draining receiver and
// returns the average nanoseconds per send.
func measureSend(ch *ipc.Channel, n int) float64 {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok, err := ipc.RecvOne(ch.Receiver); !ok || err != nil {
				return
			}
		}
	}()
	m := ipc.Message{Op: ipc.OpPointerDefine, Arg1: 1, Arg2: 2}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := ch.Sender.Send(m); err != nil {
			break
		}
	}
	elapsed := time.Since(start)
	ch.Close()
	<-done
	return float64(elapsed.Nanoseconds()) / float64(n)
}

// FormatTable2 renders the rows like the paper's Table 2.
func FormatTable2(rows []IPCRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %-7s %-7s %-14s %10s %12s\n",
		"IPC Primitive", "Append", "Async", "Primary Cost", "Paper(ns)", "Measured(ns)")
	for _, r := range rows {
		mark := func(b bool) string {
			if b {
				return "yes"
			}
			return "no"
		}
		meas := fmt.Sprintf("%.1f", r.MeasuredNanos)
		if r.Modeled {
			meas += "*"
		}
		fmt.Fprintf(&sb, "%-28s %-7s %-7s %-14s %10.1f %12s\n",
			r.Name, mark(r.AppendOnly), mark(r.AsyncValidation), r.PrimaryCost,
			r.PaperNanos, meas)
	}
	sb.WriteString("(*) Go-object cost of a modelled hardware primitive, not real device latency.\n")
	return sb.String()
}
