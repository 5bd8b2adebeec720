package ipc

import (
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"syscall"

	"herqules/internal/telemetry"
)

// fdSender writes framed messages to a kernel-backed file descriptor. Every
// Send is a real write(2): the kernel holds sent messages, so the primitive
// is append-only, but the system call (plus KPTI privilege transition) puts
// hundreds of nanoseconds on the monitored program's critical path — the
// weakness Table 2 attributes to message queues, pipes and sockets.
type fdSender struct {
	mu      sync.Mutex
	w       *os.File
	seq     uint64
	buf     [MessageSize]byte
	pending *atomic.Int64 // shared with the paired fdReceiver
}

func (s *fdSender) Send(m Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return ErrClosed
	}
	s.seq++
	m.Seq = s.seq
	m.Encode(s.buf[:])
	if _, err := s.w.Write(s.buf[:]); err != nil {
		return err
	}
	s.pending.Add(1)
	return nil
}

func (s *fdSender) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil
	}
	err := s.w.Close()
	s.w = nil
	return err
}

// fdReceiver reads framed messages from a file descriptor. Reads pull
// whatever burst the kernel has buffered in one read(2); the shared
// FrameDecoder carries a trailing partial frame until the next call, so the
// receive syscall cost is amortized across the burst instead of paid per
// message.
type fdReceiver struct {
	r       *os.File
	dec     *FrameDecoder
	pending *atomic.Int64 // shared with the paired fdSender

	// carries counts bursts that ended in a partial frame carried to the
	// next call (set by Channel.EnableTelemetry, nil otherwise).
	carries *telemetry.Counter
	// frameErrs counts terminal framing failures — undecodable frames and
	// streams truncated mid-frame (set by Channel.EnableTelemetry, nil
	// otherwise).
	frameErrs *telemetry.Counter
}

func newFDReceiver(r *os.File, pending *atomic.Int64) *fdReceiver {
	return &fdReceiver{r: r, dec: NewFrameDecoder(r), pending: pending}
}

// countFrameErr bumps the framing-failure counter when telemetry is wired.
func (r *fdReceiver) countFrameErr() {
	if r.frameErrs != nil {
		r.frameErrs.Inc()
	}
}

// RecvBatch implements Receiver: one read(2) per burst, then frame
// decoding in process (FrameDecoder). A decode failure cannot be attributed
// to a process — a corrupted stream may carry a stale PID — so the error is
// returned bare. On a local kernel channel there is no resume protocol, so a
// stream truncated mid-frame stays a terminal integrity failure — silently
// dropping the trailing bytes would hide a lost (possibly violating)
// message. Unattributable: the partial frame may not even carry a complete
// PID field.
func (r *fdReceiver) RecvBatch(out []Message) (int, bool, error) {
	n, ok, err := r.dec.Decode(out)
	r.pending.Add(int64(-n))
	if err != nil {
		r.countFrameErr()
	}
	if !ok {
		// Stream over (cleanly or not): release the fd eagerly, matching the
		// pre-decoder behavior that freed the descriptor at EOF. A decode
		// failure keeps the fd: the stream is poisoned either way, and the
		// caller sees the same terminal error on every subsequent call.
		if err == nil || errors.As(err, new(*TruncatedFrameError)) {
			r.r.Close()
		}
		return n, false, err
	}
	if r.carries != nil && r.dec.Carried() {
		r.carries.Inc()
	}
	return n, true, nil
}

// Pending reports messages written but not yet received. The kernel's own
// buffer is not directly observable, so the endpoints share a counter.
func (r *fdReceiver) Pending() int {
	if n := r.pending.Load(); n > 0 {
		return int(n)
	}
	return 0
}

var (
	_ Receiver = (*fdReceiver)(nil)
	_ Pender   = (*fdReceiver)(nil)
)

// NewPipe builds a channel over an anonymous kernel pipe (the "Named Pipe"
// row of Table 2). If pipe creation is unavailable the constructor falls
// back to an in-process queue that models the same cost.
func NewPipe() *Channel {
	props := Properties{
		Name:            "Named Pipe",
		AppendOnly:      true,
		AsyncValidation: false,
		PrimaryCost:     "system call",
		SendNanos:       316,
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return newFallbackQueue(props)
	}
	pending := new(atomic.Int64)
	return &Channel{
		Sender:   &fdSender{w: pw, pending: pending},
		Receiver: newFDReceiver(pr, pending),
		Props:    props,
	}
}

// NewSocket builds a channel over a Unix-domain stream socketpair (the
// "Socket" row of Table 2), falling back to an in-process queue when the
// socketpair system call is unavailable.
func NewSocket() *Channel {
	props := Properties{
		Name:            "Socket",
		AppendOnly:      true,
		AsyncValidation: false,
		PrimaryCost:     "system call",
		SendNanos:       346,
	}
	return newSocketpairChannel(syscall.SOCK_STREAM, props)
}

// NewMessageQueue builds a channel with POSIX-message-queue semantics: a
// kernel-held queue of discrete messages, each send one system call (the
// "Message Queue" row of Table 2 and the -MQ configurations of §5.3.1).
// Message boundaries are preserved by the fixed-size framing over a
// kernel socketpair; a datagram socket would also preserve them but never
// wakes a blocked reader when the writer closes.
func NewMessageQueue() *Channel {
	props := Properties{
		Name:            "Message Queue",
		AppendOnly:      true,
		AsyncValidation: false,
		PrimaryCost:     "system call",
		SendNanos:       146,
	}
	return newSocketpairChannel(syscall.SOCK_STREAM, props)
}

func newSocketpairChannel(typ int, props Properties) *Channel {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, typ, 0)
	if err != nil {
		return newFallbackQueue(props)
	}
	// Non-blocking mode hands the fds to Go's poller, so a reader blocked
	// in Recv wakes on writer close (EOF) instead of sleeping in read(2).
	syscall.SetNonblock(fds[0], true)
	syscall.SetNonblock(fds[1], true)
	w := os.NewFile(uintptr(fds[0]), props.Name+"-send")
	r := os.NewFile(uintptr(fds[1]), props.Name+"-recv")
	pending := new(atomic.Int64)
	return &Channel{
		Sender:   &fdSender{w: w, pending: pending},
		Receiver: newFDReceiver(r, pending),
		Props:    props,
	}
}

// memQueue is an in-process mutex+cond message queue. It stands in for a
// kernel primitive the host denies (newFallbackQueue) and carries the
// light-weight-context model (NewLWC). It keeps the kernel channels'
// interface semantics (append-only from the sender's perspective, blocking
// receive) so higher layers are unaffected; only the Table 2 wall-clock
// micro-benchmark loses its kernel-cost realism on the fallback.
type memQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message
	closed bool
	seq    uint64
}

func newMemQueue() *memQueue {
	q := &memQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func newFallbackQueue(props Properties) *Channel {
	q := newMemQueue()
	return &Channel{Sender: q, Receiver: q, Props: props}
}

func (q *memQueue) Send(m Message) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	q.seq++
	m.Seq = q.seq
	q.queue = append(q.queue, m)
	q.cond.Signal()
	return nil
}

func (q *memQueue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
	return nil
}

// RecvBatch implements Receiver: one lock round per burst.
func (q *memQueue) RecvBatch(out []Message) (int, bool, error) {
	if len(out) == 0 {
		return 0, true, nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.queue) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.queue) == 0 {
		return 0, false, nil
	}
	n := copy(out, q.queue)
	q.queue = q.queue[n:]
	return n, true, nil
}

// Pending implements Pender.
func (q *memQueue) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queue)
}

var (
	_ Receiver = (*memQueue)(nil)
	_ Pender   = (*memQueue)(nil)
)
