package policy

import "herqules/internal/ipc"

// Counter is the toy policy from the paper's §2 overview: reliably count
// function calls (or any event classes) made by the monitored program. An
// in-process counter could be corrupted by the program's own bugs; holding
// it in the verifier behind append-only messages makes it trustworthy even
// after total program compromise.
type Counter struct {
	Hooks
	// counts maps event class -> count, in the flat table (ptrtable.go).
	counts *ptrTable
	// Limit, when non-zero, turns the counter into a watchdog: exceeding
	// it for any class is a violation (e.g. "this program must not call
	// exec more than once").
	Limit uint64
}

// NewCounter creates a counter policy with no limit.
func NewCounter() *Counter {
	return &Counter{counts: newPtrTable()}
}

// Name implements Policy.
func (c *Counter) Name() string { return "counter" }

// Entries implements Policy.
func (c *Counter) Entries() int { return c.counts.live }

// Clone implements Policy.
func (c *Counter) Clone() Policy {
	n := NewCounter()
	n.Limit = c.Limit
	c.counts.each(n.counts.put)
	return n
}

// Ops implements Policy.
func (c *Counter) Ops() []ipc.Op { return []ipc.Op{ipc.OpCounterInc} }

// Handle implements Policy.
func (c *Counter) Handle(m ipc.Message) *Violation {
	if m.Op != ipc.OpCounterInc {
		return nil
	}
	n, _ := c.counts.get(m.Arg1)
	n++
	c.counts.put(m.Arg1, n)
	if c.Limit > 0 && n > c.Limit {
		return &Violation{PID: m.PID, Op: m.Op, Addr: m.Arg1, Value: n,
			Reason: "event count exceeded configured limit"}
	}
	return nil
}

// Count returns the current count for an event class.
func (c *Counter) Count(class uint64) uint64 {
	n, _ := c.counts.get(class)
	return n
}

var _ Policy = (*Counter)(nil)
