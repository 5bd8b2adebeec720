package verify

import (
	"strings"
	"testing"
	"time"
)

// FuzzReplay feeds Replay newline-separated schedules under a scope the
// fuzzer picks from a bit set. Whatever the schedule, Replay must return
// within replayDeadline, must not panic, and may reject a schedule only as
// "not enabled". Under a scope with no revert hook (UnsafeLateNotify,
// UnsafeEpochTimer) and no fault (UnsafeSeverDrop, or Reorder with the
// counter check off, which breaks the gate by design) it must also find no
// violation: a schedule the exploration's depth and state bounds never
// reached is still a run of the production lifecycle, and the invariants
// hold on every one.
func FuzzReplay(f *testing.F) {
	const replayDeadline = 20 * time.Second
	seeds := [][]string{
		{"launch:A", "visible:A", "fork:A>B", "send:B", "deliver:B"},
		{"launch:A", "send:A", "deliver:A"},
		{"launch:A", "visible:A", "gate:A", "disconnect:A", "lease-expire:A"},
		{"launch:A", "visible:A", "gate:A", "disconnect:A", "connect:A", "deliver:A"},
		{"launch:A", "visible:A", "exit:A", "exitdone:A"},
		{"launch:A", "visible:A", "send:A", "gate:A", "deliver:A@1", "deliver:A"},
		{"launch:A", "visible:A", "launch:B", "visible:B", "send:B", "poison:A", "deliver:B", "gate:B"},
		{"visible:A"},
		{"launch:A", "frobnicate:A"},
	}
	const every = 0xff // every transition family, CheckSeq on
	for _, s := range seeds {
		f.Add(strings.Join(s, "\n"), uint16(every))
	}
	f.Add(strings.Join(seeds[0], "\n"), uint16(1<<9|1<<6|1)) // the recorded late-notify counterexample
	for _, tr := range []string{"launch:A", "send:A", "deliver:A@1", "gate:A"} {
		f.Add(tr, uint16(every))
	}

	f.Fuzz(func(t *testing.T, in string, bits uint16) {
		schedule := strings.Split(in, "\n")
		if len(schedule) > 40 {
			t.Skip("longer than any schedule the scope's depth bound explores")
		}
		has := func(i uint) bool { return bits&(1<<i) != 0 }
		cfg := Config{
			Fork: has(0), Exit: has(1), Kill: has(2), Expire: has(3), Poison: has(4),
			Reorder: has(5), CheckSeq: has(6), Conn: has(7),
			UnsafeSeverDrop: has(8), UnsafeLateNotify: has(9), UnsafeEpochTimer: has(10),
			Procs: 2 + int(bits>>11&1), MaxSends: 1 + int(bits>>12&1), MaxGates: 1 + int(bits>>13&1),
		}
		faulty := cfg.UnsafeLateNotify || cfg.UnsafeEpochTimer || cfg.UnsafeSeverDrop ||
			(cfg.Reorder && !cfg.CheckSeq)

		type outcome struct {
			v        *Violation
			err      error
			panicked any
		}
		done := make(chan outcome, 1)
		go func() {
			var o outcome
			defer func() {
				o.panicked = recover()
				done <- o
			}()
			o.v, o.err = Replay(cfg, schedule)
		}()
		var o outcome
		select {
		case o = <-done:
		case <-time.After(replayDeadline):
			t.Fatalf("Replay(%+v) still running after %v on %q", cfg, replayDeadline, schedule)
		}
		switch {
		case o.panicked != nil:
			t.Fatalf("Replay(%+v) panicked on %q: %v", cfg, schedule, o.panicked)
		case o.err != nil && !strings.Contains(o.err.Error(), "not enabled"):
			t.Fatalf("Replay(%+v) on %q: %v, want only the \"not enabled\" reject", cfg, schedule, o.err)
		case o.v != nil && !faulty:
			t.Fatalf("Replay(%+v) on %q: violation in a scope with no revert hook and no fault:\n%s",
				cfg, schedule, o.v)
		}
	})
}
