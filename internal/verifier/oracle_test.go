package verifier

import (
	"math/rand"
	"reflect"
	"testing"

	"herqules/internal/ipc"
	"herqules/internal/policy"
)

// referencePump is the executable spec Pump is checked against: one message
// per RecvBatch, one Deliver per message — no bursts, no run cutting, windows
// of one.
func referencePump(v *Verifier, r ipc.Receiver) {
	var one [1]ipc.Message
	for {
		n, ok, err := r.RecvBatch(one[:])
		if n == 1 {
			v.Deliver(one[0])
		}
		if err != nil {
			v.killAttributed(err)
			return
		}
		if !ok {
			return
		}
	}
}

// Roles of the PIDs in an oracle stream. Every fault belongs to its own
// process, so each process dies for exactly one reason and the first-kill
// reason fakeGate keeps does not depend on delivery interleaving. The last
// three faults exist only on a sealed stream; unsealed, those processes are
// clean.
const (
	oracleCFIViolator = 1 + iota // checks a pointer against the wrong value
	oracleSeqGap                 // skips a sequence number
	oracleSeqDup                 // repeats a sequence number
	oracleErrTarget              // clean; the receiver blames it mid-stream
	oracleMacFlip                // one bit of a tag flipped in transit
	oracleSplice                 // a frame sealed under another process's key
	oracleReplay                 // an earlier sealed frame sent again verbatim
	oracleClean1
	oracleClean2
	oraclePIDs = oracleClean2
)

// oracleFaulty lists the processes that must die, and no other may.
func oracleFaulty(sealed bool) []int32 {
	if sealed {
		return []int32{oracleCFIViolator, oracleSeqGap, oracleSeqDup, oracleErrTarget, oracleMacFlip, oracleSplice, oracleReplay}
	}
	return []int32{oracleCFIViolator, oracleSeqGap, oracleSeqDup, oracleErrTarget}
}

// oracleStream builds a seeded multi-PID stream from stretches: 1–150
// pointer messages of one process — a define, then a check of it, in turns —
// which cfi alone consumes, so that a stretch is one run that fills and
// outlasts the verifier's 64-message window, closed by a counter message or,
// one time in four, a System-Call message. Stretches of random processes
// follow one another whole. Every faulty role has one fault at a random
// position of the first third of its own stream; the CFI violator's is a bad
// check placed, by place, at a stretch's first, middle or last message or on
// either side of a window boundary, and each later stretch of its carries one
// more bad check, which only a log-only verifier gets to see. errAt is the
// global index (past the first fault of every role) at which the receiver
// fails with a ProcessError attributed to oracleErrTarget. With keys the
// stream is sealed and the sealed-only faults are applied; the seeded
// positions put them in either lane of the sealer's pairs and on the first
// and last frames of windows.
func oracleStream(rng *rand.Rand, keys []ipc.MacKey, place int) (msgs []ipc.Message, errAt int) {
	const perPID = 600
	var seq, sent [oraclePIDs + 1]uint64
	var faultAt [oraclePIDs + 1]uint64
	lastFault, violating := 0, false
	for pid := range faultAt {
		faultAt[pid] = uint64(50 + rng.Intn(perPID/4))
	}
	for len(msgs) < oraclePIDs*perPID {
		pid := int32(1 + rng.Intn(oraclePIDs))
		stretch, bad := 1+rng.Intn(150), -1
		if pid == oracleCFIViolator && sent[pid] >= faultAt[pid] {
			switch {
			case violating:
				bad = rng.Intn(stretch)
			case place == 0:
				bad = 0
			case place == 1:
				stretch = max(stretch, 3)
				bad = 1 + rng.Intn(stretch-2)
			case place == 2:
				bad = stretch - 1
			default:
				stretch = max(stretch, lookAhead+1)
				bad = lookAhead - rng.Intn(2)
			}
		}
		for j := 0; j <= stretch && sent[pid] < perPID; j++ {
			i := sent[pid]
			sent[pid]++
			seq[pid]++
			addr := uint64(0x1000 + 8*(j/2%64))
			m := ipc.Message{Op: ipc.OpPointerDefine, PID: pid, Arg1: addr, Arg2: addr + 1}
			switch {
			case j == stretch && rng.Intn(4) == 0:
				m.Op = ipc.OpSyscall
			case j == stretch:
				m.Op = ipc.OpCounterInc
			case j == bad:
				m.Op, m.Arg2 = ipc.OpPointerCheck, 0xbad
			case j%2 == 1:
				m.Op = ipc.OpPointerCheck
			}
			fault := i == faultAt[pid]
			if pid == oracleCFIViolator {
				fault = j == bad && !violating
				violating = violating || fault
			}
			if fault {
				lastFault = len(msgs)
				switch pid {
				case oracleSeqGap:
					seq[pid]++
				case oracleSeqDup:
					seq[pid]--
				}
			}
			m.Seq = seq[pid]
			if keys != nil {
				m.Mac = ipc.MacSeal(keys[pid], m, m.Seq)
				if fault {
					switch pid {
					case oracleMacFlip:
						m.Mac ^= 1 << (i % 64)
					case oracleSplice:
						m.Mac = ipc.MacSeal(keys[oracleClean1], m, m.Seq)
					case oracleReplay:
						m.Seq -= 7
						m.Mac = ipc.MacSeal(keys[pid], m, m.Seq)
					}
				}
			}
			msgs = append(msgs, m)
		}
	}
	return msgs, lastFault + 1 + rng.Intn(len(msgs)-lastFault)
}

// oracleReceiver serves msgs[:errAt] in bursts of seeded random size, then
// fails with err (closes cleanly when err is nil). The last burst arrives in
// the same call as the error, so the "first n messages are valid alongside
// err" half of the Receiver contract is on the tested path.
type oracleReceiver struct {
	msgs  []ipc.Message
	errAt int
	err   error
	rng   *rand.Rand
	pos   int
}

func (r *oracleReceiver) RecvBatch(out []ipc.Message) (int, bool, error) {
	k := 1 + r.rng.Intn(300)
	if k > len(out) {
		k = len(out)
	}
	if k > r.errAt-r.pos {
		k = r.errAt - r.pos
	}
	copy(out, r.msgs[r.pos:r.pos+k])
	r.pos += k
	if r.pos == r.errAt {
		return k, false, r.err
	}
	return k, true, nil
}

// perPID splits what r would serve into one receiver per process — the
// production shape, where every process has a channel of its own — each
// serving that process's messages in r's order, in seeded bursts of its own.
// r's error stays with the process it is attributed to; the other sources
// close cleanly.
func (r *oracleReceiver) perPID() []*oracleReceiver {
	srcs := make([]*oracleReceiver, oraclePIDs)
	for i := range srcs {
		srcs[i] = &oracleReceiver{rng: rand.New(rand.NewSource(r.rng.Int63()))}
	}
	for _, m := range r.msgs[:r.errAt] {
		src := srcs[m.PID-1]
		src.msgs = append(src.msgs, m)
	}
	for _, src := range srcs {
		src.errAt = len(src.msgs)
	}
	srcs[oracleErrTarget-1].err = r.err
	return srcs
}

// oracleOutcome is everything the differential test compares. Forensics
// holds each killed process's frozen report without its wall-clock fields.
type oracleOutcome struct {
	Kills      map[int32]string
	Syncs      [oraclePIDs + 1]int
	Messages   [oraclePIDs + 1]uint64
	Violations [oraclePIDs + 1][]string
	Forensics  [oraclePIDs + 1]*ForensicReport
	Total      uint64
}

// runOracle delivers the seed's stream through pump, with the flight recorder
// armed. Unsealed, the chain is cfi+counter; sealed, it is hqd's — the
// default set behind the hmac sealer — with every frame sealed under its
// process's key. logOnly turns KillOnViolation off.
func runOracle(seed int64, sealed, logOnly bool, pump func(*Verifier, ipc.Receiver)) oracleOutcome {
	g := newFakeGate()
	factory := PolicyFactory(cfiFactory)
	var keys []ipc.MacKey
	kr := policy.NewKeyringSeeded(uint64(seed))
	if sealed {
		f, err := policy.SetFactory(append(append([]string{}, policy.DefaultSet...), "hmac")...)
		if err != nil {
			panic(err)
		}
		factory = f
		keys = make([]ipc.MacKey, oraclePIDs+1)
		for pid := int32(1); pid <= oraclePIDs; pid++ {
			kr.Program(pid)
			keys[pid], _ = kr.Key(pid)
		}
	}
	msgs, errAt := oracleStream(rand.New(rand.NewSource(seed)), keys, int(seed%4))
	v := New(factory, g)
	v.CheckSeq = true
	v.KillOnViolation = !logOnly
	v.EnableFlightRecorder(1024)
	v.SetKeyring(kr)
	for pid := int32(1); pid <= oraclePIDs; pid++ {
		v.ProcessStarted(pid)
	}
	pump(v, &oracleReceiver{
		msgs: msgs, errAt: errAt, rng: rand.New(rand.NewSource(seed ^ 0x5eed)),
		err: &ipc.ProcessError{PID: oracleErrTarget, Err: ipc.ErrIntegrity},
	})
	out := oracleOutcome{Kills: g.kills, Total: v.TotalMessages()}
	for _, pid := range g.syncs {
		out.Syncs[pid]++
	}
	for pid := int32(1); pid <= oraclePIDs; pid++ {
		out.Messages[pid] = v.Messages(pid)
		for _, viol := range v.Violations(pid) {
			out.Violations[pid] = append(out.Violations[pid], viol.Error())
		}
		if rep, ok := v.Forensics(pid); ok {
			r := *rep
			r.FrozenUnixNanos = 0
			r.Window = append([]FlightEntry(nil), rep.Window...)
			for i := range r.Window {
				r.Window[i].UnixNanos = 0
			}
			out.Forensics[pid] = &r
		}
	}
	return out
}

// TestPumpMatchesReferenceOracle is the differential check of the one drain
// path: on seeded random multi-PID streams carrying a CFI violator, a
// sequence gap, a duplicate sequence number and a mid-stream attributed
// receive error, Pump must produce exactly
// the reference loop's kill set, kill reasons, gate releases, per-PID message
// counts, per-PID violations and forensic reports — fed the stream through
// one receiver on the caller's goroutine or on a drain goroutine, and fed it
// split into one source per PID, all drained at once: several drain
// goroutines delivering into one verifier, the interleaving production runs. The sealed variant runs hqd's chain on a sealed stream
// that also carries a flipped tag bit, a frame spliced in under another
// process's key and a replayed sealed frame. The log-only variant keeps the
// CFI violator alive, so every later violation of its must match too. The
// reference delivers one message at a time — windows of one and runs of one,
// so every frame goes through the sealer's scalar check, no look-ahead
// happens and every policy call is a run of one — which makes it the slow
// twin of the 64-message window with its 8-lane unseal and of the run that
// one HandleRun call takes.
func TestPumpMatchesReferenceOracle(t *testing.T) {
	pumps := map[string]func(*Verifier, ipc.Receiver){
		"Pump": (*Verifier).Pump,
		"Pump on a drain goroutine": func(v *Verifier, r ipc.Receiver) {
			<-drain(v, r)
		},
		"Pump, a drain per PID": func(v *Verifier, r ipc.Receiver) {
			var dones []<-chan struct{}
			for _, src := range r.(*oracleReceiver).perPID() {
				dones = append(dones, drain(v, src))
			}
			for _, done := range dones {
				<-done
			}
		},
	}
	for _, sealed := range []bool{false, true} {
		for _, logOnly := range []bool{false, true} {
			faulty := oracleFaulty(sealed)
			if logOnly {
				faulty = faulty[1:] // all but oracleCFIViolator
			}
			for seed := int64(1); seed <= 12; seed++ {
				want := runOracle(seed, sealed, logOnly, referencePump)
				for _, pid := range faulty {
					if want.Kills[pid] == "" {
						t.Fatalf("sealed=%v logOnly=%v seed %d: reference did not kill faulty pid %d: %v", sealed, logOnly, seed, pid, want.Kills)
					}
				}
				if len(want.Kills) != len(faulty) {
					t.Fatalf("sealed=%v logOnly=%v seed %d: reference killed a clean process: %v", sealed, logOnly, seed, want.Kills)
				}
				if n := len(want.Violations[oracleCFIViolator]); n == 0 || logOnly && n < 2 {
					t.Fatalf("sealed=%v logOnly=%v seed %d: the CFI violator recorded %d violations", sealed, logOnly, seed, n)
				}
				for name, pump := range pumps {
					got := runOracle(seed, sealed, logOnly, pump)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("sealed=%v logOnly=%v seed %d %s diverges from the reference:\n got  %+v\n want %+v",
							sealed, logOnly, seed, name, got, want)
					}
				}
			}
		}
	}
}
