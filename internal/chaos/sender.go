package chaos

import (
	"time"

	"herqules/internal/ipc"
)

// faultSender applies the one producer-side fault — delay/jitter — around a
// wrapped sender. Producer-side faults deliberately exclude drops and
// corruption: every backend in the ipc package assigns the message's
// sequence number inside Send, so a message discarded before Send would
// never consume a sequence number and the verifier's CheckSeq could not see
// the loss. Loss and corruption are injected on the receiver side (see
// faultReceiver), where they are observable as the integrity violations the
// design must catch.
type faultSender struct {
	inj    *Injector
	s      ipc.Sender
	stream uint64
	// idx counts Sends. Plain, not atomic: every backend in the
	// ipc package already requires a single producer goroutine per channel.
	idx uint64
}

// Sender wraps s with the injector's producer-side faults. The wrapper
// forwards Close and the PIDRegister extension, so kernel-side code that
// programs the transport's PID register still reaches it.
func (inj *Injector) Sender(s ipc.Sender) ipc.Sender {
	return &faultSender{inj: inj, s: s, stream: inj.streams.Add(1)}
}

func (fs *faultSender) Send(m ipc.Message) error {
	inj := fs.inj
	i := fs.idx
	fs.idx++
	if inj.fires(FaultDelay, fs.stream, i) {
		inj.recordDecision(fs.stream, i, FaultDelay)
		// Jitter amount is drawn deterministically too, in (0, maxDelay].
		frac := inj.draw(FaultNone, fs.stream, i) % uint64(inj.cfg.maxDelay)
		time.Sleep(time.Duration(frac) + 1)
	} else {
		inj.recordDecision(fs.stream, i, FaultNone)
	}
	return fs.s.Send(m)
}

func (fs *faultSender) Close() error { return fs.s.Close() }

// SetPID implements ipc.PIDRegister by forwarding to the wrapped sender.
func (fs *faultSender) SetPID(pid int32) {
	if reg, ok := fs.s.(ipc.PIDRegister); ok {
		reg.SetPID(pid)
	}
}

var (
	_ ipc.Sender      = (*faultSender)(nil)
	_ ipc.PIDRegister = (*faultSender)(nil)
)
