package policy

import (
	"reflect"
	"testing"

	"herqules/internal/ipc"
)

// handleEach is HandleRun for a policy that has only Handle: the reference
// the fuzzer holds every registered policy's HandleRun to.
func handleEach(handle func(ipc.Message) *Violation, ms []ipc.Message) (int, *Violation) {
	for i := range ms {
		if v := handle(ms[i]); v != nil {
			return i, v
		}
	}
	return len(ms), nil
}

// runPool is the handful of values a fuzzed message's arguments are drawn
// from: small ids (dfi sets and writers, counter classes, sizes), a few
// nearby addresses, so a check finds what a define or a create left there
// about as often as it misses, and one address that wraps.
var runPool = [8]uint64{0, 1, 2, 0x1000, 0x1008, 0x1010, 0x1040, ^uint64(0) - 3}

// fuzzedRun decodes fuzz input into one process's stream for p and the cut
// points to hand it to HandleRun at. Every three bytes make one message: its
// op — one of p's own about half the time, otherwise any op, including one
// beyond the table — its three arguments from runPool, and whether a cut
// follows it.
func fuzzedRun(data []byte, ops []ipc.Op) (run []ipc.Message, cuts []bool) {
	for seq := uint64(1); len(data) >= 3 && seq <= 200; seq, data = seq+1, data[3:] {
		m := ipc.Message{PID: 9, Seq: seq,
			Arg1: runPool[data[1]&7], Arg2: runPool[data[1]>>3&7], Arg3: runPool[data[2]&7]}
		if pick := int(data[0]); pick&1 == 0 && len(ops) > 0 {
			m.Op = ops[pick>>1%len(ops)]
		} else {
			m.Op = ipc.Op(pick>>1) % (ipc.NumOps + 1)
		}
		run = append(run, m)
		cuts = append(cuts, data[2]&0x80 != 0)
	}
	return run, cuts
}

// checkHandleRun is the differential check behind FuzzHandleRun, for every
// registered policy that is not a sealer: one instance takes the stream
// through HandleRun cut at the fuzzed points, resuming after each violation
// at the next message; a twin takes it through Handle, one message at a time.
// After every call they must agree on where the run stopped, on the
// violation, and on Entries, and HandleRun must leave its input as it found
// it.
func checkHandleRun(t *testing.T, data []byte) {
	for _, name := range Names() {
		fast, slow := MustSet(name, name)[0], MustSet(name)[0]
		if _, ok := fast.(Sealer); ok {
			continue
		}
		if c, ok := fast.(*Counter); ok { // give the counter a way to fail
			c.Limit, slow.(*Counter).Limit = 3, 3
		}
		fast.ProcessStarted(9)
		slow.ProcessStarted(9)
		run, cuts := fuzzedRun(data, fast.Ops())
		for pos := 0; pos < len(run); {
			end := pos + 1
			for end < len(run) && !cuts[end-1] {
				end++
			}
			in := run[pos:end]
			wantN, wantV := handleEach(slow.Handle, in)
			before := append([]ipc.Message(nil), in...)
			n, v := fast.HandleRun(in)
			if n != wantN || !reflect.DeepEqual(v, wantV) {
				t.Fatalf("%s: run [%d, %d): HandleRun = %d, %v; one Handle at a time stops at %d, %v", name, pos, end, n, v, wantN, wantV)
			}
			if !reflect.DeepEqual(in, before) {
				t.Fatalf("%s: run [%d, %d): HandleRun modified its input", name, pos, end)
			}
			if got, want := fast.Entries(), slow.Entries(); got != want {
				t.Fatalf("%s: after run [%d, %d): Entries = %d through HandleRun, %d through Handle", name, pos, end, got, want)
			}
			pos += n
			if v != nil {
				pos++ // resume after the violator
			}
		}
	}
}

func FuzzHandleRun(f *testing.F) {
	// A long clean-looking stream cut every few messages, the same uncut,
	// and each with one byte disturbed at a run's first, middle and last
	// message.
	base := make([]byte, 3*150)
	for i := range base {
		base[i] = byte(i * 37)
	}
	uncut := append([]byte(nil), base...)
	for i := 2; i < len(uncut); i += 3 {
		uncut[i] &^= 0x80
	}
	for _, d := range [][]byte{base, uncut} {
		f.Add(d)
		for _, at := range []int{0, 31, 63, 64, 149} {
			e := append([]byte(nil), d...)
			e[3*at+1] ^= 0x3f
			f.Add(e)
		}
	}
	f.Fuzz(checkHandleRun)
}
