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

// oracleStream builds a seeded multi-PID stream interleaved at random
// quantum lengths, with one fault per faulty role at a random position of
// the first third of that process's own stream, and picks the global index
// (past the last fault) at which the receiver fails with a ProcessError
// attributed to oracleErrTarget. With keys
// the stream is sealed, quanta run to 150 messages so that one process's run
// fills and outlasts the verifier's 64-message window, and the sealed-only
// faults are applied; the seeded positions put them in either lane of the
// sealer's pairs and on the first and last frames of windows.
func oracleStream(rng *rand.Rand, keys []ipc.MacKey) (msgs []ipc.Message, errAt int) {
	const perPID = 600
	maxQuantum := 40
	if keys != nil {
		maxQuantum = 150
	}
	var seq, sent [oraclePIDs + 1]uint64
	var faultAt [oraclePIDs + 1]uint64
	lastFault := 0
	for pid := range faultAt {
		faultAt[pid] = uint64(50 + rng.Intn(perPID/4))
	}
	for len(msgs) < oraclePIDs*perPID {
		pid := int32(1 + rng.Intn(oraclePIDs))
		for q := 1 + rng.Intn(maxQuantum); q > 0 && sent[pid] < perPID; q-- {
			i := sent[pid]
			sent[pid]++
			seq[pid]++
			addr := uint64(0x1000 + 8*(i/3%64))
			m := ipc.Message{PID: pid, Arg1: addr, Arg2: addr + 1}
			switch i % 3 {
			case 0:
				m.Op = ipc.OpPointerDefine
			case 1:
				m.Op = ipc.OpPointerCheck
			default:
				m.Op = ipc.OpCounterInc
			}
			fault := i == faultAt[pid]
			if fault {
				lastFault = len(msgs)
				switch pid {
				case oracleCFIViolator:
					m.Op, m.Arg2 = ipc.OpPointerCheck, 0xbad
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

// oracleOutcome is everything the differential test compares.
type oracleOutcome struct {
	Kills      map[int32]string
	Messages   [oraclePIDs + 1]uint64
	Violations [oraclePIDs + 1][]string
	Total      uint64
}

// runOracle delivers the seed's stream through pump. Unsealed, the chain is
// cfi+counter; sealed, it is hqd's — the default set behind the hmac sealer —
// with every frame sealed under its process's key.
func runOracle(seed int64, shards int, sealed bool, pump func(*Verifier, ipc.Receiver)) oracleOutcome {
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
	msgs, errAt := oracleStream(rand.New(rand.NewSource(seed)), keys)
	v := NewSharded(factory, g, shards)
	v.CheckSeq = true
	v.SetKeyring(kr)
	for pid := int32(1); pid <= oraclePIDs; pid++ {
		v.ProcessStarted(pid)
	}
	pump(v, &oracleReceiver{
		msgs: msgs, errAt: errAt, rng: rand.New(rand.NewSource(seed ^ 0x5eed)),
		err: &ipc.ProcessError{PID: oracleErrTarget, Err: ipc.ErrIntegrity},
	})
	out := oracleOutcome{Kills: g.kills, Total: v.TotalMessages()}
	for pid := int32(1); pid <= oraclePIDs; pid++ {
		out.Messages[pid] = v.Messages(pid)
		for _, viol := range v.Violations(pid) {
			out.Violations[pid] = append(out.Violations[pid], viol.Error())
		}
	}
	return out
}

// TestPumpMatchesReferenceOracle is the differential check of the one drain
// path: on seeded random multi-PID streams carrying a CFI violator, a
// sequence gap, a duplicate sequence number and a mid-stream attributed
// receive error, Pump and PumpSet at 1, 2 and 4 shards must produce exactly
// the reference loop's kill set, kill reasons, per-PID message counts and
// per-PID violations — fed the stream through one receiver, and fed it split
// into one source per PID, all attached at once: several drain goroutines
// delivering into one shard, the interleaving production runs. The sealed
// variant runs hqd's chain on a sealed stream
// that also carries a flipped tag bit, a frame spliced in under another
// process's key and a replayed sealed frame. The reference delivers one
// message at a time — windows of one, so every frame goes through the
// sealer's scalar check and no look-ahead happens — which makes it the slow
// twin of the 64-message window with its 8-lane unseal.
func TestPumpMatchesReferenceOracle(t *testing.T) {
	pumps := map[string]func(*Verifier, ipc.Receiver){
		"Pump": (*Verifier).Pump,
		"PumpSet": func(v *Verifier, r ipc.Receiver) {
			ps := v.NewPumpSet()
			done, err := ps.Attach(r)
			if err != nil {
				panic(err)
			}
			<-done
			ps.Close()
		},
		"PumpSet, a source per PID": func(v *Verifier, r ipc.Receiver) {
			ps := v.NewPumpSet()
			for _, src := range r.(*oracleReceiver).perPID() {
				if _, err := ps.Attach(src); err != nil {
					panic(err)
				}
			}
			ps.Close()
		},
	}
	for _, sealed := range []bool{false, true} {
		faulty := oracleFaulty(sealed)
		for seed := int64(1); seed <= 12; seed++ {
			want := runOracle(seed, 1, sealed, referencePump)
			for _, pid := range faulty {
				if want.Kills[pid] == "" {
					t.Fatalf("sealed=%v seed %d: reference did not kill faulty pid %d: %v", sealed, seed, pid, want.Kills)
				}
			}
			if len(want.Kills) != len(faulty) {
				t.Fatalf("sealed=%v seed %d: reference killed a clean process: %v", sealed, seed, want.Kills)
			}
			for name, pump := range pumps {
				for _, shards := range []int{1, 2, 4} {
					got := runOracle(seed, shards, sealed, pump)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("sealed=%v seed %d %s shards=%d diverges from the reference:\n got  %+v\n want %+v",
							sealed, seed, name, shards, got, want)
					}
				}
			}
		}
	}
}
