package ipc

import (
	"fmt"
	"io"
	"sync"
)

// This file is the reusable core of the fd framing: fixed-size AppendWrite
// frames over an arbitrary byte stream, with a trailing partial frame carried
// between reads. It was extracted from fdchan.go so the networked attestation
// plane (internal/hqnet) speaks exactly the wire format the kernel-backed
// channels already speak — one framing layer, two transports.

// TruncatedFrameError reports a byte stream that ended inside a frame.
// Silently dropping the trailing bytes would hide a lost (possibly violating)
// message, so local channels treat it as a terminal integrity failure (it
// unwraps to ErrIntegrity). The networked plane distinguishes it by type: a
// TCP connection severed mid-frame is a *connection* death, not a *process*
// violation — the partial frame is discarded, the session lease keeps
// running, and the client retransmits the whole frame on resume.
type TruncatedFrameError struct {
	// Trailing is the number of staged bytes the stream ended with
	// (0 < Trailing < MessageSize).
	Trailing int
}

func (e *TruncatedFrameError) Error() string {
	return fmt.Sprintf("ipc: truncated frame: stream ended with %d trailing bytes (frame is %d): %v",
		e.Trailing, MessageSize, ErrIntegrity)
}

// Unwrap classifies truncation as an integrity failure for errors.Is.
func (e *TruncatedFrameError) Unwrap() error { return ErrIntegrity }

// FrameDecoder decodes fixed-size message frames from a byte stream. Reads
// pull whatever burst the transport has buffered; a trailing partial frame is
// staged until the next call, so per-message costs are amortized across the
// burst. Not safe for concurrent use: a frame stream has exactly one reader.
type FrameDecoder struct {
	r   io.Reader
	buf []byte // staging buffer; buf[:n] holds undecoded bytes
	n   int
}

// NewFrameDecoder returns a decoder over r. The decoder never closes r; the
// owner reacts to the terminal results of Decode.
func NewFrameDecoder(r io.Reader) *FrameDecoder { return &FrameDecoder{r: r} }

// Carried reports whether a partial frame is currently staged — bytes read
// from the stream but not yet completing a frame.
func (d *FrameDecoder) Carried() bool { return d.n%MessageSize != 0 }

// Buffered reports how many complete frames are staged and decodable without
// touching the underlying reader.
func (d *FrameDecoder) Buffered() int { return d.n / MessageSize }

// Decode fills out with up to len(out) messages, blocking until at least one
// complete frame is available or the stream ends. Results:
//
//   - n > 0, ok == true: n frames decoded.
//   - n == 0, ok == false, err == nil: the stream ended cleanly at a frame
//     boundary and is fully drained.
//   - err != nil: a *TruncatedFrameError (stream ended mid-frame) or a frame
//     decode failure; both wrap ErrIntegrity and both are terminal — a byte
//     stream cannot be resynchronized, every subsequent frame boundary is
//     suspect. The first n messages of out are still valid and must be
//     processed before the caller acts on the error.
func (d *FrameDecoder) Decode(out []Message) (int, bool, error) {
	if len(out) == 0 {
		return 0, true, nil
	}
	want := len(out) * MessageSize
	if want < d.n {
		want = d.n // never truncate bytes carried from a larger burst
	}
	if cap(d.buf) < want {
		grown := make([]byte, want)
		copy(grown, d.buf[:d.n])
		d.buf = grown
	}
	d.buf = d.buf[:want]
	// Block until at least one complete frame is staged; frames carried from
	// a previous burst are served without touching the transport.
	for d.n < MessageSize {
		nr, err := d.r.Read(d.buf[d.n:])
		if nr > 0 {
			d.n += nr
		}
		if err != nil {
			if d.n >= MessageSize {
				break
			}
			if d.n > 0 {
				trailing := d.n
				d.n = 0
				return 0, false, &TruncatedFrameError{Trailing: trailing}
			}
			return 0, false, nil // closed and drained
		}
	}
	cnt := d.n / MessageSize
	if cnt > len(out) {
		cnt = len(out)
	}
	for i := 0; i < cnt; i++ {
		m, err := DecodeMessage(d.buf[i*MessageSize:])
		if err != nil {
			d.consume(i * MessageSize)
			return i, false, fmt.Errorf("ipc: frame decode failed: %v: %w", err, ErrIntegrity)
		}
		out[i] = m
	}
	d.consume(cnt * MessageSize)
	return cnt, true, nil
}

// consume discards the first k decoded bytes, sliding a partial trailing
// frame to the front of the staging buffer.
func (d *FrameDecoder) consume(k int) {
	copy(d.buf, d.buf[k:d.n])
	d.n -= k
}

// StageFrames is how many frames a FrameWriter stages before it writes them
// out on its own: just under 16 KiB. Throughput is flat from a quarter of
// this to four times it, so it is a constant, not a setting.
const StageFrames = 341

// FrameWriter serializes messages onto a byte stream, one frame per message.
// Unlike the fd channel's sender it assigns no sequence numbers: the caller
// owns Seq (and Mac) — the networked plane's resume protocol depends on
// retransmitted frames carrying their original sequence numbers verbatim.
//
// Stage encodes a frame behind the ones already staged without touching the
// stream; Flush and WriteMessage put everything staged on the stream in a
// single Write, so a sender pays one system call per burst instead of one
// per 48-byte frame. A Write that fails drops what was staged with it: the
// stream is dead, and whoever needs those frames delivered (hqnet's replay
// buffer) retransmits them on the next one. Safe for concurrent use; the
// mutex is held across the Write, so frames from concurrent callers never
// interleave and each caller's frames keep their order.
type FrameWriter struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte            // staged frames; always has room for one more
	one [MessageSize]byte // backs buf until the first Stage
}

// NewFrameWriter returns a writer over w. The writer never closes w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	fw := &FrameWriter{w: w}
	fw.buf = fw.one[:0]
	return fw
}

// Stage encodes m behind the frames already staged, and writes them all out
// if that fills the staging buffer. The buffer is allocated here, on first
// use: a writer that only ever calls WriteMessage never pays for it.
func (fw *FrameWriter) Stage(m Message) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if cap(fw.buf) < StageFrames*MessageSize {
		fw.buf = make([]byte, 0, StageFrames*MessageSize)
	}
	fw.put(m)
	if len(fw.buf) == cap(fw.buf) {
		return fw.flush()
	}
	return nil
}

// WriteMessage writes every staged frame and then m, in one Write.
func (fw *FrameWriter) WriteMessage(m Message) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.put(m)
	return fw.flush()
}

// Flush writes every staged frame in one Write; with nothing staged it does
// not touch the stream.
func (fw *FrameWriter) Flush() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if len(fw.buf) == 0 {
		return nil
	}
	return fw.flush()
}

func (fw *FrameWriter) put(m Message) {
	n := len(fw.buf)
	fw.buf = fw.buf[:n+MessageSize]
	m.Encode(fw.buf[n:])
}

func (fw *FrameWriter) flush() error {
	_, err := fw.w.Write(fw.buf)
	fw.buf = fw.buf[:0]
	return err
}
