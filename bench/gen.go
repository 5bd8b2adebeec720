package main

import (
	"math/rand"
	"time"

	"herqules/internal/ipc"
)

// Every stream and schedule the benchmark sends is produced here from the
// seed alone; the program under test only ever sees the generated messages.

// blockMsgs is the number of data messages between two gates. One block is
// the benchmark's unit of work: blockMsgs data messages, one OpSyscall, one
// gate — so a block puts blockMsgs+1 messages on the channel.
const blockMsgs = 4096

// Address-space layout of the generated programs. The regions are disjoint
// so a pointer slot is never mistaken for an allocation or a DFI address.
const (
	ptrBase   = 0x7f00_0000_0000
	heapBase  = 0x5500_0000_0000
	dfiBase   = 0x6000_0000_0000
	allocStep = 256 // distance between allocation slots
	allocSize = 128 // bytes per allocation (slots never touch)
)

// mix64 is the splitmix64 finalizer: the stateless hash the generators use
// to derive a slot's value from (seed, slot) without storing it.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hotMix is the CFI hot mix: pointer define / check / redefine / invalidate
// over a small slot set, so the policy tables stay cache-resident and the
// transport and verifier plumbing carry the cost. It is generated once as a
// period that leaves the table empty, then replayed cyclically block by
// block — the stream stays self-consistent across wrap-around.
type hotMix struct {
	period []ipc.Message
	pos    int
	block  int // messages per next()
}

// hotSlots and hotPeriod size the hot mix: 4096 pointer slots, a period of
// 16 full blocks (3 MiB of messages per session).
const (
	hotSlots  = 4096
	hotPeriod = 16 * blockMsgs
)

// newHotMix builds a period of n messages for pid, handed out block
// messages at a time; block must divide n.
func newHotMix(seed uint64, pid int32, slots, n, block int) *hotMix {
	rng := rand.New(rand.NewSource(int64(mix64(seed))))
	out := make([]ipc.Message, 0, n)
	vals := make([]uint64, slots) // 0 = undefined
	defined, drain := 0, 0
	addr := func(s int) uint64 { return ptrBase + uint64(s)*8 }
	for len(out) < n {
		remaining := n - len(out)
		if remaining <= defined+1 {
			// Tail of the period: only state-shrinking or neutral ops, so
			// the table is empty exactly when the period ends.
			for drain < slots && vals[drain] == 0 {
				drain++
			}
			if drain == slots {
				out = append(out, ipc.Message{Op: ipc.OpPointerInvalidate, PID: pid, Arg1: addr(0)})
				continue
			}
			if remaining == defined+1 {
				out = append(out, ipc.Message{Op: ipc.OpPointerCheck, PID: pid, Arg1: addr(drain), Arg2: vals[drain]})
				continue
			}
			out = append(out, ipc.Message{Op: ipc.OpPointerInvalidate, PID: pid, Arg1: addr(drain)})
			vals[drain] = 0
			defined--
			continue
		}
		s := rng.Intn(slots)
		if vals[s] == 0 {
			vals[s] = rng.Uint64() | 1
			defined++
			out = append(out, ipc.Message{Op: ipc.OpPointerDefine, PID: pid, Arg1: addr(s), Arg2: vals[s]})
			continue
		}
		switch r := rng.Intn(10); {
		case r < 6:
			out = append(out, ipc.Message{Op: ipc.OpPointerCheck, PID: pid, Arg1: addr(s), Arg2: vals[s]})
		case r < 8:
			vals[s] = rng.Uint64() | 1
			out = append(out, ipc.Message{Op: ipc.OpPointerDefine, PID: pid, Arg1: addr(s), Arg2: vals[s]})
		default:
			vals[s] = 0
			defined--
			out = append(out, ipc.Message{Op: ipc.OpPointerInvalidate, PID: pid, Arg1: addr(s)})
		}
	}
	return &hotMix{period: out, block: block}
}

// next returns the next block of the cyclic stream (a view, not a copy).
func (h *hotMix) next() []ipc.Message {
	blk := h.period[h.pos : h.pos+h.block]
	h.pos = (h.pos + h.block) % len(h.period)
	return blk
}

// policySizes is the live working set one policyMix process holds after its
// prefill. ring_policy's one producer at the default sizes keeps just over
// 1 M entries live across the policy tables.
type policySizes struct {
	ptrs, dfiAddrs, allocSlots, counters int
}

var (
	fullPolicySizes  = policySizes{ptrs: 786432, dfiAddrs: 262144, allocSlots: 4096, counters: 64}
	quickPolicySizes = policySizes{ptrs: 8192, dfiAddrs: 4096, allocSlots: 256, counters: 64}
)

// dfiWriters is the number of stores: writers 1..64, four per reaching set.
const dfiWriters = 64

// policyMix is the mixed stream for the full policy chain: pointer ops for
// cfi, allocation ops for memsafety and temporal, DFI set/check, counter
// increments. After the prefill every op is state-preserving at block
// boundaries (a slot's value is a pure function of (seed, slot); destructive
// ops come as adjacent destroy+create pairs), so the generator carries no
// per-slot state, draws uniformly over the whole working set forever, and
// knows the exact live-entry count the verifier must report.
type policyMix struct {
	seed uint64
	pid  int32
	sz   policySizes
	rng  uint64
	fill int // prefill cursor
	buf  []ipc.Message
}

func newPolicyMix(seed uint64, pid int32, sz policySizes) *policyMix {
	return &policyMix{seed: seed, pid: pid, sz: sz, rng: mix64(seed) | 1, buf: make([]ipc.Message, 0, blockMsgs)}
}

func (p *policyMix) rand() uint64 {
	// xorshift64*: a few cycles per draw, so generation stays a small share
	// of the producer's per-message cost next to sealing.
	x := p.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	p.rng = x
	return x * 0x2545f4914f6cdd1d
}

func (p *policyMix) ptrAddr(s uint64) uint64 { return ptrBase + s*8 }
func (p *policyMix) ptrVal(s uint64) uint64  { return mix64(p.seed^s) | 1 }
func (p *policyMix) dfiAddr(a uint64) uint64 { return dfiBase + a*8 }

// dfiWriter is the one store that ever writes address a (1..dfiWriters).
func (p *policyMix) dfiWriter(a uint64) uint64 { return 1 + mix64(p.seed^0xdf1^a)%dfiWriters }
func dfiSetOf(writer uint64) uint64            { return (writer - 1) / 4 }
func (p *policyMix) allocBase(s uint64) uint64 { return heapBase + s*allocStep }

// prefillLen is the number of messages the prefill sends.
func (p *policyMix) prefillLen() int {
	return p.sz.ptrs + dfiWriters + p.sz.dfiAddrs + p.sz.allocSlots/2 + p.sz.counters
}

// liveEntries is the metadata entry count the verifier must hold for this
// process at every block boundary after the prefill: pointers (cfi), last
// writers (dfi), live allocations (memsafety and temporal each) and counter
// classes. hmac holds none.
func (p *policyMix) liveEntries() int {
	return p.sz.ptrs + p.sz.dfiAddrs + 2*(p.sz.allocSlots/2) + p.sz.counters
}

// prefillNext returns the next block (at most blockMsgs messages) of the
// prefill, or nil once the working set is built: every pointer defined,
// every writer declared, every DFI address written once, the even
// allocation slots created, every counter class touched.
func (p *policyMix) prefillNext() []ipc.Message {
	out := p.buf[:0]
	for ; p.fill < p.prefillLen() && len(out) < blockMsgs; p.fill++ {
		i := uint64(p.fill)
		m := ipc.Message{PID: p.pid}
		switch {
		case i < uint64(p.sz.ptrs):
			m.Op, m.Arg1, m.Arg2 = ipc.OpPointerDefine, p.ptrAddr(i), p.ptrVal(i)
		case i < uint64(p.sz.ptrs+dfiWriters):
			w := i - uint64(p.sz.ptrs) + 1
			m.Op, m.Arg1, m.Arg2 = ipc.OpDFIDeclare, dfiSetOf(w), w
		case i < uint64(p.sz.ptrs+dfiWriters+p.sz.dfiAddrs):
			a := i - uint64(p.sz.ptrs+dfiWriters)
			m.Op, m.Arg1, m.Arg2 = ipc.OpDFISet, p.dfiAddr(a), p.dfiWriter(a)
		case i < uint64(p.sz.ptrs+dfiWriters+p.sz.dfiAddrs+p.sz.allocSlots/2):
			s := 2 * (i - uint64(p.sz.ptrs+dfiWriters+p.sz.dfiAddrs))
			m.Op, m.Arg1, m.Arg2 = ipc.OpAllocCreate, p.allocBase(s), allocSize
		default:
			c := i - uint64(p.sz.ptrs+dfiWriters+p.sz.dfiAddrs+p.sz.allocSlots/2)
			m.Op, m.Arg1 = ipc.OpCounterInc, c
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// next returns the next steady-state block: exactly blockMsgs messages, with
// no destroy+create pair split across the block boundary.
func (p *policyMix) next() []ipc.Message {
	out := p.buf[:0]
	msg := func(op ipc.Op, a1, a2 uint64) {
		out = append(out, ipc.Message{Op: op, PID: p.pid, Arg1: a1, Arg2: a2})
	}
	for len(out) < blockMsgs {
		r := p.rand()
		pick := r % 100
		x := r >> 8
		if pair := pick >= 50 && pick < 60 || pick >= 92 && pick < 96; pair && len(out) == blockMsgs-1 {
			pick = 0 // no room for a pair: fall back to a single check
		}
		switch {
		case pick < 40:
			s := x % uint64(p.sz.ptrs)
			msg(ipc.OpPointerCheck, p.ptrAddr(s), p.ptrVal(s))
		case pick < 50:
			s := x % uint64(p.sz.ptrs)
			msg(ipc.OpPointerDefine, p.ptrAddr(s), p.ptrVal(s))
		case pick < 56:
			s := x % uint64(p.sz.ptrs)
			msg(ipc.OpPointerInvalidate, p.ptrAddr(s), 0)
			msg(ipc.OpPointerDefine, p.ptrAddr(s), p.ptrVal(s))
		case pick < 60:
			s := x % uint64(p.sz.ptrs)
			msg(ipc.OpPointerCheckInvalidate, p.ptrAddr(s), p.ptrVal(s))
			msg(ipc.OpPointerDefine, p.ptrAddr(s), p.ptrVal(s))
		case pick < 72:
			a := x % uint64(p.sz.dfiAddrs)
			msg(ipc.OpDFISet, p.dfiAddr(a), p.dfiWriter(a))
		case pick < 84:
			a := x % uint64(p.sz.dfiAddrs)
			msg(ipc.OpDFICheck, p.dfiAddr(a), dfiSetOf(p.dfiWriter(a)))
		case pick < 90:
			s := 2 * (x % uint64(p.sz.allocSlots/2))
			msg(ipc.OpAllocCheck, p.allocBase(s)+(x>>32)%allocSize, 0)
		case pick < 92:
			s := 2 * (x % uint64(p.sz.allocSlots/2))
			msg(ipc.OpAllocCheckBase, p.allocBase(s), p.allocBase(s)+allocSize-1)
		case pick < 94:
			s := 2 * (x % uint64(p.sz.allocSlots/2)) // live slot: free, reallocate
			msg(ipc.OpAllocDestroy, p.allocBase(s), 0)
			msg(ipc.OpAllocCreate, p.allocBase(s), allocSize)
		case pick < 96:
			s := 2*(x%uint64(p.sz.allocSlots/2)) + 1 // free slot: allocate, free
			msg(ipc.OpAllocCreate, p.allocBase(s), allocSize)
			msg(ipc.OpAllocDestroy, p.allocBase(s), 0)
		default:
			msg(ipc.OpCounterInc, x%uint64(p.sz.counters), 0)
		}
	}
	p.buf = out
	return out
}

// requestMsgs is the data-message count of one net_gate request; with its
// OpSyscall a request puts requestMsgs+1 messages on the wire.
const requestMsgs = 16

// gateRungs are the fixed offered rates of the open-loop ladder, in requests
// per second per session. At 17 messages per request they offer 17-136 k
// msg/s per session, bracketing the paper's 53 k msg/s per-process maximum.
var gateRungs = []int{1000, 2000, 4000, 8000}

// poissonSchedule returns n due times (offsets from the rung start) with
// exponential inter-arrival gaps at the given rate.
func poissonSchedule(seed uint64, rate, n int) []time.Duration {
	rng := rand.New(rand.NewSource(int64(mix64(seed ^ uint64(rate)))))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / float64(rate)
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// canaryCFI is the stream of a process that must die to the cfi policy:
// it defines a code pointer and then checks it against a corrupted value.
func canaryCFI(pid int32) []ipc.Message {
	return []ipc.Message{
		{Op: ipc.OpPointerDefine, PID: pid, Arg1: ptrBase, Arg2: 0x401000},
		{Op: ipc.OpPointerCheck, PID: pid, Arg1: ptrBase, Arg2: 0x401000 ^ 0x10},
	}
}

// canaryUnsealed is the stream of a process that must die to the hmac
// policy on a sealed system: one well-formed frame that carries no MAC.
func canaryUnsealed(pid int32) []ipc.Message {
	return []ipc.Message{{Op: ipc.OpPointerDefine, PID: pid, Arg1: ptrBase, Arg2: 0x401000}}
}
