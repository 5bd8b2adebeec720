package ipc

import "time"

// LWCSwitchNanos is the cost of one light-weight-context switch as measured
// by Litton et al. (OSDI '16) and quoted in Table 2. A disjoint-address-space
// design pays this cost twice per message — switching to the verifier's
// context and back — on the monitored program's critical path.
const LWCSwitchNanos = 2010

// lwcSender models delivering messages through light-weight contexts: each
// Send performs two context switches (to the verifier and back), modelled as
// calibrated busy-waits, around a synchronous hand-over to the shared
// in-process queue. It demonstrates why even the fastest
// disjoint-address-space primitive is unusable for high-frequency event
// streams (§2.3). The sender pays the switches; the verifier side drains
// whole bursts from the queue under one lock round.
type lwcSender struct{ *memQueue }

// NewLWC constructs the light-weight-context model channel.
func NewLWC() *Channel {
	q := newMemQueue()
	return &Channel{Sender: lwcSender{q}, Receiver: q, Props: Properties{
		Name:            "Light-Weight Contexts",
		AppendOnly:      true,
		AsyncValidation: false,
		PrimaryCost:     "context switch",
		SendNanos:       2 * LWCSwitchNanos,
	}}
}

func (s lwcSender) Send(m Message) error {
	// Switch into the verifier's context, deliver, switch back.
	spinWait(LWCSwitchNanos * time.Nanosecond)
	if err := s.memQueue.Send(m); err != nil {
		return err
	}
	spinWait(LWCSwitchNanos * time.Nanosecond)
	return nil
}
