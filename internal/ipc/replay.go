package ipc

import "sync"

// Replay is a receiver that serves a pre-recorded message stream. Throughput
// experiments use it to measure the verifier's drain rate in isolation: the
// producer cost is paid up front, so messages/sec reflects receive + policy
// evaluation only. The zero cost of "production" also makes one-slot-vs-burst
// drain comparisons clean — both modes replay the identical stream.
//
// A Replay serves its stream once. The per-call mutex models the synchronization a real receiver pays once
// per RecvBatch, so a one-slot drain pays it per message.
type Replay struct {
	mu   sync.Mutex
	msgs []Message
	next int
}

// NewReplay builds a replay receiver over msgs (not copied).
func NewReplay(msgs []Message) *Replay { return &Replay{msgs: msgs} }

// RecvBatch implements Receiver; the stream "closes" when exhausted.
func (r *Replay) RecvBatch(out []Message) (int, bool, error) {
	if len(out) == 0 {
		return 0, true, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next >= len(r.msgs) {
		return 0, false, nil
	}
	n := copy(out, r.msgs[r.next:])
	r.next += n
	return n, true, nil
}

var _ Receiver = (*Replay)(nil)
