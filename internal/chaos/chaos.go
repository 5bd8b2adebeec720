// Package chaos is a deterministic fault injector for the HerQules IPC
// plane. It wraps any ipc.Sender / ipc.Receiver pair with composable fault
// stages — message drop, duplication, bounded reordering, payload bit-flip
// corruption, send delay/jitter and receive stall-then-burst — and a
// net.Conn with connection faults, so the verifier→kernel enforcement path
// can be soaked against exactly the failure classes its design claims to
// survive: a dropped or replayed message must surface as a CheckSeq
// violation (§3.1.1), and a silent channel must surface as an epoch expiry
// (§2.2). A late message or a late burst must change nothing.
//
// Determinism. Every per-message fault decision is a pure function of
// (seed, stream, message index): the same seed over the same message
// streams yields bit-identical fault schedules, independent of scheduling,
// timing, or how receives batch. The stall-then-burst fault necessarily
// depends on how many RecvBatch calls the consumer makes — a timing
// artifact — so it is decided from a separate per-call counter and excluded
// from the schedule hash.
//
// The injector itself is pure wrapping: code that does not install a
// wrapper pays nothing, and a wrapper whose rates are all zero only pays a
// few predictable branch tests per message.
package chaos

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Fault identifies one injectable fault class.
type Fault int

// Fault classes, in schedule-hash encoding order. FaultNone must stay zero:
// a clean message hashes as decision 0. A class keeps its number for good:
// draw hashes it, so renumbering one would move every schedule. A retired
// class leaves its number unused.
const (
	FaultNone      Fault = iota
	FaultDrop            // receiver discards the message
	FaultDuplicate       // receiver sees the message twice
	FaultReorder         // message delivered late, within the reorder window
	FaultCorrupt         // one payload bit flipped before delivery
	FaultDelay           // sender sleeps before the send
	_                    // retired: Send failed and was retried
	_                    // retired: RecvBatch failed and was retried
	FaultStall           // RecvBatch stalls, then delivers the backlog burst

	// Connection-level faults for the networked attestation plane
	// (internal/hqnet): they act on a net.Conn wrapper rather than on a
	// Sender/Receiver pair.
	FaultConnDrop         // transport dies mid-frame: half a frame written, then closed
	FaultConnDropBoundary // transport dies exactly at a frame boundary: whole frames, then closed
	FaultConnStall        // one write stalls (a frozen network path)
	numFaults
)

// faultNames gives each fault its one name: what String prints and the key
// Counts carries it under, in text and in JSON. A retired number has none,
// and Counts skips it.
var faultNames = [numFaults]string{
	FaultNone:             "none",
	FaultDrop:             "dropped",
	FaultDuplicate:        "duplicated",
	FaultReorder:          "reordered",
	FaultCorrupt:          "corrupted",
	FaultDelay:            "delayed",
	FaultStall:            "stalls",
	FaultConnDrop:         "conn_drops",
	FaultConnDropBoundary: "conn_drop_boundaries",
	FaultConnStall:        "conn_stalls",
}

func (f Fault) String() string {
	if f >= 0 && f < numFaults && faultNames[f] != "" {
		return faultNames[f]
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// Counts is how many times each fault actually fired, indexed by Fault.
// FaultNone's slot and the retired ones stay zero.
type Counts [numFaults]uint64

// Total sums every fired fault.
func (c Counts) Total() uint64 {
	var t uint64
	for _, n := range c {
		t += n
	}
	return t
}

// String lists every fault class by name: "dropped=3 duplicated=1 ...".
func (c Counts) String() string {
	var sb strings.Builder
	for f := FaultDrop; f < numFaults; f++ {
		if faultNames[f] == "" {
			continue
		}
		if f > FaultDrop {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%d", faultNames[f], c[f])
	}
	return sb.String()
}

// MarshalJSON writes an object keyed by fault name, in Fault order.
func (c Counts) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for f := FaultDrop; f < numFaults; f++ {
		if faultNames[f] == "" {
			continue
		}
		if f > FaultDrop {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%q:%d", faultNames[f], c[f])
	}
	return append(b, '}'), nil
}

// UnmarshalJSON reads what MarshalJSON writes. An unknown key is an error.
func (c *Counts) UnmarshalJSON(data []byte) error {
	var byName map[string]uint64
	if err := json.Unmarshal(data, &byName); err != nil {
		return err
	}
	*c = Counts{}
	for name, n := range byName {
		f := FaultDrop
		for f < numFaults && faultNames[f] != name {
			f++
		}
		if f == numFaults || name == "" {
			return fmt.Errorf("chaos: unknown fault %q", name)
		}
		c[f] = n
	}
	return nil
}

// config holds the per-fault rates and the four parameters beside them.
// Rates are probabilities in [0, 1], evaluated deterministically per message
// (or per call for the call-scoped faults).
type config struct {
	rate         [numFaults]float64
	window       int // max messages a reordered message may be held back
	maxDelay     time.Duration
	stallFor     time.Duration
	connStallFor time.Duration
}

// Option configures an Injector.
type Option func(*config)

// withRate sets fault f's rate.
func withRate(f Fault, rate float64) Option {
	return func(c *config) { c.rate[f] = clampRate(rate) }
}

// orDefault is d, or a millisecond when d is not positive.
func orDefault(d time.Duration) time.Duration {
	if d <= 0 {
		return time.Millisecond
	}
	return d
}

// WithDrop discards each received message with probability rate. Dropped
// messages leave a sequence gap the verifier must flag (§3.1.1).
func WithDrop(rate float64) Option { return withRate(FaultDrop, rate) }

// WithDuplicate delivers each received message twice with probability rate.
// The duplicate carries the identical sequence number, so CheckSeq must
// classify it as a duplicate, not a gap.
func WithDuplicate(rate float64) Option { return withRate(FaultDuplicate, rate) }

// WithReorder holds each received message back with probability rate,
// releasing it after up to window subsequent messages have been delivered.
// A released message arrives with a stale sequence number — a
// replay/reorder violation.
func WithReorder(rate float64, window int) Option {
	return func(c *config) {
		withRate(FaultReorder, rate)(c)
		c.window = max(window, 1)
	}
}

// WithCorrupt flips one deterministically chosen bit in each received
// message's payload (Arg1/Arg2/Arg3/Seq) with probability rate.
func WithCorrupt(rate float64) Option { return withRate(FaultCorrupt, rate) }

// WithDelay sleeps up to max before a send with probability rate, modelling
// scheduling jitter on the producer side.
func WithDelay(rate float64, max time.Duration) Option {
	return func(c *config) {
		withRate(FaultDelay, rate)(c)
		c.maxDelay = orDefault(max)
	}
}

// WithStall makes each RecvBatch call, with probability rate, sleep for d
// before reading — the backlog then arrives as one burst. Call-scoped:
// excluded from the schedule hash.
func WithStall(rate float64, d time.Duration) Option {
	return func(c *config) {
		withRate(FaultStall, rate)(c)
		c.stallFor = orDefault(d)
	}
}

// WithConnDrop kills a wrapped connection mid-frame with probability rate,
// evaluated per written frame: half the frame's bytes go out, then the
// transport closes. The far side observes a truncated frame — on the local
// fd channels a terminal integrity violation, on the networked plane a
// severed connection the client must survive by resuming. Call-scoped
// against the transport write sequence: excluded from the schedule hash.
func WithConnDrop(rate float64) Option { return withRate(FaultConnDrop, rate) }

// WithConnDropAtBoundary kills a wrapped connection exactly at a frame
// boundary with probability rate, evaluated per write: half the frames of
// the write (rounded down to a whole frame) go out, then the transport
// closes. Unlike the mid-frame drop this truncation is INVISIBLE to the
// framing layer — the far side's decoder observes a clean end-of-stream with
// no carry and no integrity error — so the loss can only be caught above
// framing: by the session lease (the sender goes silent) or by CheckSeq (the
// surviving stream has a sequence gap). Call-scoped against the transport
// write sequence: excluded from the schedule hash.
func WithConnDropAtBoundary(rate float64) Option { return withRate(FaultConnDropBoundary, rate) }

// WithConnStall freezes a wrapped connection's write for d with probability
// rate, modelling a stalled network path. A stall that outlives the
// session lease must surface as a fail-closed lease kill, never as an
// unattributed hang. Call-scoped: excluded from the schedule hash.
func WithConnStall(rate float64, d time.Duration) Option {
	return func(c *config) {
		withRate(FaultConnStall, rate)(c)
		c.connStallFor = orDefault(d)
	}
}

func clampRate(r float64) float64 {
	return min(max(r, 0), 1)
}

// Injector derives deterministic fault schedules from one seed and hands out
// Sender/Receiver wrappers that apply them. One Injector may wrap any number
// of channels; each wrapper gets its own stream identifier in creation
// order, so a fixed seed plus a fixed wrapping order reproduces the exact
// schedule regardless of runtime interleaving.
type Injector struct {
	seed uint64
	cfg  config

	streams atomic.Uint64 // next stream id
	hash    atomic.Uint64 // XOR-combined FNV-1a of per-message decisions
	counts  [numFaults]atomic.Uint64
}

// NewInjector builds an injector for seed with the given fault options.
func NewInjector(seed uint64, opts ...Option) *Injector {
	inj := &Injector{seed: seed}
	for _, o := range opts {
		o(&inj.cfg)
	}
	return inj
}

// Seed reports the injector's seed.
func (inj *Injector) Seed() uint64 { return inj.seed }

// Counts snapshots how many faults have fired so far.
func (inj *Injector) Counts() Counts {
	var c Counts
	for f := range c {
		c[f] = inj.counts[f].Load()
	}
	return c
}

// fires decides fault f for item idx of stream — a message, a call or a
// write — and counts it when it fires.
func (inj *Injector) fires(f Fault, stream, idx uint64) bool {
	rate := inj.cfg.rate[f]
	// Top 53 bits of the draw → uniform float64 in [0, 1).
	if rate <= 0 || float64(inj.draw(f, stream, idx)>>11)/(1<<53) >= rate {
		return false
	}
	inj.counts[f].Add(1)
	return true
}

// ScheduleHash digests every per-message fault decision taken so far:
// FNV-1a over (stream, index, decision) records, XOR-combined so the digest
// is independent of goroutine interleaving. Two runs with the same seed,
// wrapping order, and message streams produce the same hash even when their
// timing differs; call-scoped faults (stalls, connection faults) are
// deliberately outside the digest.
func (inj *Injector) ScheduleHash() uint64 { return inj.hash.Load() }

// recordDecision folds one per-message decision into the schedule hash.
// Decision 0 (clean) is folded too: a message that was *eligible* for
// faults but drew none is part of the schedule.
func (inj *Injector) recordDecision(stream, idx uint64, f Fault) {
	h := fnv1a(stream, idx, uint64(f))
	for {
		old := inj.hash.Load()
		if inj.hash.CompareAndSwap(old, old^h) {
			return
		}
	}
}

// fnv1a hashes the three words with 64-bit FNV-1a, byte by byte.
func fnv1a(a, b, c uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range [3]uint64{a, b, c} {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return h
}

// splitmix64 is the counter-PRNG core: a bijective mixer good enough that
// consecutive counters produce independent-looking draws (Steele et al.,
// "Fast splittable pseudorandom number generators").
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw produces the deterministic random word for fault f on message idx of
// stream. Each (fault, stream) pair gets its own counter sequence, so the
// per-fault decisions are mutually independent.
func (inj *Injector) draw(f Fault, stream, idx uint64) uint64 {
	return splitmix64(inj.seed ^
		stream*0xd1b54a32d192ed03 ^
		uint64(f)*0x2545f4914f6cdd1d ^
		splitmix64(idx))
}
