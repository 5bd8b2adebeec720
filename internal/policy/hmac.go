package policy

import (
	"fmt"

	"herqules/internal/ipc"
)

// HMAC is the verifier-side half of the CCFI-style authenticated channel
// (Mashtizadeh et al., PAPERS.md): every message arrives sealed by
// ipc.SealSender under the process's kernel-programmed key, and this policy —
// a Sealer, so it runs before the sequence check and every other policy —
// recomputes the tag, checks the stream position, and strips the envelope.
// On an untrusted transport this turns bit flips, replays, reorders, and
// cross-process splices into attributable authentication kills instead of
// silent corruption or misattributed sequence-gap kills.
type HMAC struct {
	ring *Keyring
	// key caches the process key once ProcessStarted resolves it; the hot
	// path then never touches the keyring lock.
	key   ipc.MacKey
	bound bool
	pid   int32
	// last is the verifier-side stream position: the Seq of the last
	// authenticated message. Sealed streams count from 1 with no gaps, so
	// anything other than last+1 is a replay, reorder, or drop.
	last uint64
}

// NewHMAC creates the policy. A nil ring (the registry default) is bound
// later through KeyBinder; an unbound instance rejects every message, which
// is the fail-closed reading of "no key was ever programmed".
func NewHMAC(ring *Keyring) *HMAC {
	return &HMAC{ring: ring}
}

// Name implements Policy.
func (h *HMAC) Name() string { return "hmac" }

// Entries implements Policy; the sealer keeps no per-message metadata.
func (h *HMAC) Entries() int { return 0 }

// BindKeyring implements KeyBinder.
func (h *HMAC) BindKeyring(kr *Keyring) { h.ring = kr }

// ProcessStarted implements Policy, caching the key the kernel programmed at
// registration (the kernel programs it before the process becomes visible,
// so the lookup here cannot race the first message).
func (h *HMAC) ProcessStarted(pid int32) {
	h.pid = pid
	h.resolveKey()
}

// ProcessForked implements Policy on the cloned child instance: the child
// inherits the parent's key (the keyring copied it at kernel fork time) but
// its channel — and therefore its sequence stream — starts fresh.
func (h *HMAC) ProcessForked(parent, child int32) {
	h.pid = child
	h.last = 0
	h.bound = false
	h.resolveKey()
}

func (h *HMAC) resolveKey() {
	if h.ring == nil {
		return
	}
	if k, ok := h.ring.Key(h.pid); ok {
		h.key, h.bound = k, true
	}
}

// Clone implements Policy. The keyring pointer is shared (it is the system
// keyring); the cached key and stream position are per-instance and the
// child's are reset by ProcessForked.
func (h *HMAC) Clone() Policy {
	n := *h
	return &n
}

// Handle implements Policy; all of the sealer's checking happens in UnsealRun.
func (h *HMAC) Handle(m ipc.Message) *Violation { return nil }

// HandleRun implements Policy: like Handle, it consumes nothing.
func (h *HMAC) HandleRun(ms []ipc.Message) (int, *Violation) { return len(ms), nil }

// Ops implements Policy: Handle consumes nothing.
func (h *HMAC) Ops() []ipc.Op { return []ipc.Op{} }

// UnsealRun implements Sealer: verify each tag and stream position, strip the
// envelopes in place. Frames are authenticated eight at a time
// (ipc.MacSeal8); the scalar check takes the remainder, and any group that
// does not verify, so the reject is the one a frame-by-frame loop would
// produce.
func (h *HMAC) UnsealRun(ms []ipc.Message) (int, *Violation) {
	if !h.bound {
		h.resolveKey() // late binding: key programmed after attach (tests)
	}
	i := 0
	if h.bound {
		for ; i+8 <= len(ms); i += 8 {
			g := (*[8]ipc.Message)(ms[i:])
			tags := ipc.MacSeal8(h.key, g)
			var bad uint64
			for j := range g {
				bad |= (tags[j] ^ g[j].Mac) | (g[j].Seq ^ (h.last + 1 + uint64(j)))
			}
			if bad != 0 {
				break
			}
			for j := range g {
				g[j].Mac = 0
			}
			h.last += 8
		}
	}
	for ; i < len(ms); i++ {
		if v := h.check(ms[i]); v != nil {
			return i, v
		}
		h.last = ms[i].Seq
		ms[i].Mac = 0
	}
	return len(ms), nil
}

// check is the scalar check of one frame: its tag, then its stream position.
// The frame travels by value — in registers — as it does into ipc.MacSeal.
func (h *HMAC) check(m ipc.Message) *Violation {
	if !h.bound {
		return &Violation{PID: m.PID, Op: m.Op, Addr: m.Arg1, Policy: "hmac",
			Reason: "message authentication failed: no key programmed for process"}
	}
	if ipc.MacSeal(h.key, m, m.Seq) != m.Mac {
		return &Violation{PID: m.PID, Op: m.Op, Addr: m.Arg1, Value: m.Mac, Policy: "hmac",
			Reason: "message authentication failed: MAC mismatch (forged, corrupted or spliced)"}
	}
	if m.Seq != h.last+1 {
		return &Violation{PID: m.PID, Op: m.Op, Addr: m.Arg1, Value: m.Seq, Policy: "hmac",
			Reason: fmt.Sprintf("message authentication failed: stream position %d after %d (replayed, reordered or dropped)",
				m.Seq, h.last)}
	}
	return nil
}

// Unseal is UnsealRun for one message by value, as ipc.RecvOne is RecvBatch
// into one slot; the per-layer benchmark (bench/ledger.go) and tests call it.
func (h *HMAC) Unseal(m ipc.Message) (ipc.Message, *Violation) {
	if !h.bound {
		h.resolveKey()
	}
	if v := h.check(m); v != nil {
		return m, v
	}
	h.last = m.Seq
	m.Mac = 0
	return m, nil
}

var (
	_ Policy    = (*HMAC)(nil)
	_ Sealer    = (*HMAC)(nil)
	_ KeyBinder = (*HMAC)(nil)
)
