package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its calls into the program's public functions — never per message:
// the unit is the block (the messages between two gates). Spans of one block
// share Req, the block's ordinal within its session.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1: root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Session  int    `json:"session"`
	Req      uint64 `json:"req"`
	StartNs  int64  `json:"start_ns"` // since the trace epoch
	EndNs    int64  `json:"end_ns"`
}

// tracer collects spans in memory and writes them out once, at exit.
// A nil *tracer records nothing, which is how tracing is switched off.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// blockTimes are the four instants of one block: generation starts, sending
// starts, the OpSyscall is on the channel, the gate verdict is back.
type blockTimes struct{ gen, send, sent, done time.Time }

// sessionTrace buffers one session's spans without locking; flush hands
// them to the tracer when the session's rep ends.
type sessionTrace struct {
	t        *tracer
	workload string
	session  int
	blocks   []blockTimes
	firstReq uint64
}

func (t *tracer) session(workload string, session int, firstReq uint64, blocks int) *sessionTrace {
	if t == nil {
		return nil
	}
	return &sessionTrace{t: t, workload: workload, session: session, firstReq: firstReq, blocks: make([]blockTimes, 0, blocks)}
}

func (st *sessionTrace) block(bt blockTimes) {
	if st != nil {
		st.blocks = append(st.blocks, bt)
	}
}

// flush converts the buffered blocks into spans: a root "block" with the
// children "send_block" and "gate_wait". The root's self time (its span
// minus its children) is the generator's time to produce the block.
func (st *sessionTrace) flush() {
	if st == nil {
		return
	}
	t := st.t
	t.mu.Lock()
	defer t.mu.Unlock()
	ns := func(x time.Time) int64 { return int64(x.Sub(t.epoch)) }
	for i, b := range st.blocks {
		root := len(t.spans)
		mk := func(id, parent int, name string, from, to time.Time) span {
			return span{ID: id, Parent: parent, Name: name, Workload: st.workload, Session: st.session,
				Req: st.firstReq + uint64(i), StartNs: ns(from), EndNs: ns(to)}
		}
		t.spans = append(t.spans,
			mk(root, -1, "block", b.gen, b.done),
			mk(root+1, root, "send_block", b.send, b.sent),
			mk(root+2, root, "gate_wait", b.sent, b.done))
	}
	st.blocks = st.blocks[:0]
}

// selfTimes sums, per workload and span name, each span's duration minus the
// part its children cover, and counts the spans.
func (t *tracer) selfTimes() map[string]map[string]selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string]map[string]selfTime{}
	for i, s := range t.spans {
		w := out[s.Workload]
		if w == nil {
			w = map[string]selfTime{}
			out[s.Workload] = w
		}
		st := w[s.Name]
		st.Spans++
		st.SelfNs += s.EndNs - s.StartNs - child[i]
		w[s.Name] = st
	}
	return out
}

type selfTime struct {
	Spans  int   `json:"spans"`
	SelfNs int64 `json:"self_ns"`
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return writeJSON(path, struct {
		Note  string `json:"note"`
		Spans []span `json:"spans"`
	}{"one span per block (messages between two gates); self time = span minus children", t.spans})
}

// writeJSON writes v as indented JSON, replacing path atomically.
func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
