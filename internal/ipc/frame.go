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

// FrameDecoder decodes fixed-size message frames from a byte stream. A read
// pulls whatever burst the transport has buffered, up to the staging buffer's
// size; Decode serves it behind a read cursor, in as many calls as out takes,
// and reads again only when less than one whole frame is left. A trailing
// partial frame is carried to the next read. Not safe for concurrent use: a
// frame stream has exactly one reader.
type FrameDecoder struct {
	r      io.Reader
	buf    []byte // staging buffer; buf[rd:wr] holds undecoded bytes
	rd, wr int
}

// NewFrameDecoder returns a decoder over r. The decoder never closes r; the
// owner reacts to the terminal results of Decode.
func NewFrameDecoder(r io.Reader) *FrameDecoder { return &FrameDecoder{r: r} }

// Grow makes the staging buffer hold at least frames whole frames, so that one
// read can take a burst that large; without it, the largest len(out) so far.
func (d *FrameDecoder) Grow(frames int) {
	if want := frames * MessageSize; len(d.buf) < want {
		grown := make([]byte, want)
		d.wr = copy(grown, d.buf[d.rd:d.wr])
		d.rd = 0
		d.buf = grown
	}
}

// Buffered reports how many complete frames are staged and decodable without
// touching the underlying reader.
func (d *FrameDecoder) Buffered() int { return (d.wr - d.rd) / MessageSize }

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
	if d.wr-d.rd < MessageSize {
		// Slide the partial frame to the front; block until one is complete.
		d.wr = copy(d.buf, d.buf[d.rd:d.wr])
		d.rd = 0
		d.Grow(len(out))
		for d.wr < MessageSize {
			nr, err := d.r.Read(d.buf[d.wr:])
			if nr > 0 {
				d.wr += nr
			}
			if err != nil {
				if d.wr >= MessageSize {
					break
				}
				if d.wr > 0 {
					trailing := d.wr
					d.wr = 0
					return 0, false, &TruncatedFrameError{Trailing: trailing}
				}
				return 0, false, nil // closed and drained
			}
		}
	}
	cnt := min((d.wr-d.rd)/MessageSize, len(out))
	for i := range out[:cnt] {
		b := d.buf[d.rd : d.rd+MessageSize : d.rd+MessageSize]
		m := &out[i]
		m.Op, m.PID = Op(getU32(b[0:])), int32(getU32(b[4:]))
		m.Arg1, m.Arg2, m.Arg3 = getU64(b[8:]), getU64(b[16:]), getU64(b[24:])
		m.Seq, m.Mac = getU64(b[32:]), getU64(b[40:])
		if !m.Op.Valid() {
			// The cursor stays here: every later call fails on this frame again.
			_, err := DecodeMessage(b)
			return i, false, fmt.Errorf("ipc: frame decode failed: %v: %w", err, ErrIntegrity)
		}
		d.rd += MessageSize
	}
	return cnt, true, nil
}

// FrameWriter serializes messages onto a byte stream, one frame per message
// and one Write per frame. Unlike the fd channel's sender it assigns no
// sequence numbers: the caller owns Seq (and Mac) — the networked plane's
// resume protocol depends on retransmitted frames carrying their original
// sequence numbers verbatim. Safe for concurrent use; the mutex is held
// across the Write, so frames from concurrent callers never interleave.
type FrameWriter struct {
	mu  sync.Mutex
	w   io.Writer
	buf [MessageSize]byte
}

// NewFrameWriter returns a writer over w. The writer never closes w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// WriteMessage encodes m and writes it.
func (fw *FrameWriter) WriteMessage(m Message) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	m.Encode(fw.buf[:])
	_, err := fw.w.Write(fw.buf[:])
	return err
}
