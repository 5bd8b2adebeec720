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

// keyPool is where a message's Arg1 comes from instead when its third byte
// has bit 6 set: 16 homes 8 bytes apart, 4 keys at each. The 4 lie
// hashInverse apart, so their hashes are consecutive and they share a home
// slot at every table size. runPool alone never has more than 7 keys live,
// and a table at its 16-slot minimum grows at the 13th; from this pool a run
// can grow it at 13, 25 and 49 live keys.
var keyPool = func() (p [64]uint64) {
	const hashInverse = 0xf1de83e19937733d // ptrTable.slot's multiplier⁻¹ mod 2⁶⁴
	for i := range p {
		p[i] = 0x2000 + 8*uint64(i>>2) + uint64(i&3)*hashInverse
	}
	return p
}()

// fuzzedRun decodes fuzz input into one process's stream for p and the cut
// points to hand it to HandleRun at. Every three bytes make one message: its
// op — one of p's own about half the time, otherwise any op, including one
// beyond the table — its three arguments from runPool (Arg1 from keyPool
// when bit 6 of the third byte is set, picked by bits 0-2 of the second and
// 3-5 of the third), and whether a cut follows it.
func fuzzedRun(data []byte, ops []ipc.Op) (run []ipc.Message, cuts []bool) {
	for seq := uint64(1); len(data) >= 3 && seq <= 200; seq, data = seq+1, data[3:] {
		m := ipc.Message{PID: 9, Seq: seq,
			Arg1: runPool[data[1]&7], Arg2: runPool[data[1]>>3&7], Arg3: runPool[data[2]&7]}
		if data[2]&0x40 != 0 {
			m.Arg1 = keyPool[data[1]&7|data[2]>>3&7<<3]
		}
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
// violation, on Entries and MaxEntries, and on what a policy's pointer table
// holds at every Arg1 and Arg2 of the run, and HandleRun must leave its input
// as it found it.
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
			if got, want := highWater(fast), highWater(slow); got != want {
				t.Fatalf("%s: after run [%d, %d): MaxEntries = %d through HandleRun, %d through Handle", name, pos, end, got, want)
			}
			if ft, st := keyedTable(fast), keyedTable(slow); ft != nil {
				for _, m := range in {
					for _, a := range [2]uint64{m.Arg1, m.Arg2} {
						got, gotOK := ft.get(a)
						if want, wantOK := st.get(a); got != want || gotOK != wantOK {
							t.Fatalf("%s: after run [%d, %d): key %#x holds %#x, %t through HandleRun, %#x, %t through Handle",
								name, pos, end, a, got, gotOK, want, wantOK)
						}
					}
				}
			}
			pos += n
			if v != nil {
				pos++ // resume after the violator
			}
		}
	}
}

// highWater is p's MaxEntries, or -1 for a policy that keeps none.
func highWater(p Policy) int {
	if h, ok := p.(interface{ MaxEntries() int }); ok {
		return h.MaxEntries()
	}
	return -1
}

// keyedTable is the pointer table p keeps its per-key state in, or nil.
func keyedTable(p Policy) *ptrTable {
	switch p := p.(type) {
	case *CFI:
		return p.table
	case *Counter:
		return p.counts
	case *DFI:
		return p.last
	case *Temporal:
		return p.tombs
	}
	return nil
}

// keyPoolSeed is fuzz input for a stream over keyPool: n defines of distinct
// keys, each of them checked, the first half of them invalidated and the
// rest checked again, with one check of a wrong value in the middle. Its
// ops are the first, second and third of a policy's own, which for cfi are
// define, check and invalidate; a cut follows every fifth message.
func keyPoolSeed(n int) []byte {
	var data []byte
	add := func(op, key int, val byte) {
		third := byte(0x40 | key>>3<<3)
		if len(data)/3%5 == 4 {
			third |= 0x80
		}
		data = append(data, byte(2*op), byte(key&7)|val<<3, third)
	}
	val := func(key int) byte { return byte(1 + key%7) } // runPool[1..7]
	for k := 0; k < n; k++ {
		add(0, k, val(k))
	}
	for k := 0; k < n; k++ {
		add(1, k, val(k))
	}
	add(1, n/2, val(n/2)%7+1) // a mismatch: a violation mid-run
	for k := 0; k < n; k++ {
		if k < n/2 {
			add(2, k, 0)
		} else {
			add(1, k, val(k))
		}
	}
	return data
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
	// keyPool streams that grow a cfi table once (16 keys), three times (60),
	// and fill it to the brim of its 16-slot minimum (12).
	for _, n := range []int{12, 16, 60} {
		f.Add(keyPoolSeed(n))
	}
	f.Fuzz(checkHandleRun)
}
