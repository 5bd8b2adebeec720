package ipc

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// chunkReader delivers data in pseudo-random chunk sizes drawn from state,
// the way a stream transport tears writes: a frame may arrive in several
// reads and one read may span several frames — one read in four hands over
// as much as the caller has room for, the way a socket with a backlog does.
// Some transports report the end of the stream together with the last bytes,
// so it sometimes does too.
type chunkReader struct {
	data  []byte
	pos   int
	state uint64
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if r.pos == len(r.data) {
		return 0, io.EOF
	}
	r.state = r.state*6364136223846793005 + 1442695040888963407
	k := 1 + int(r.state>>33)%(3*MessageSize)
	if r.state>>22&3 == 0 {
		k = len(p)
	}
	k = min(k, len(p), len(r.data)-r.pos)
	copy(p, r.data[r.pos:r.pos+k])
	r.pos += k
	if r.pos == len(r.data) && r.state&(1<<20) != 0 {
		return k, io.EOF
	}
	return k, nil
}

// FuzzFrameDecoder feeds FrameDecoder — the decoder hqnet sessions run
// directly against the drain loop's burst buffer — arbitrary bytes in arbitrary chunk
// sizes, through a staging buffer of arbitrary size, into receive buffers of
// arbitrary length: one read may be served by many calls and one call may
// need many reads. Whatever the tearing, it
// must yield exactly the messages a frame-by-frame DecodeMessage pass over
// the contiguous bytes yields, end the same way (cleanly at a boundary,
// truncated mid-frame with the right trailing count, or on the first
// undecodable frame), return no error that is not ErrIntegrity, and keep
// staged bytes equal to the bytes it has read but not yet decoded.
func FuzzFrameDecoder(f *testing.F) {
	var good [MessageSize]byte
	Message{Op: OpPointerDefine, PID: 3, Arg1: 0x10, Arg2: 0x20, Seq: 1, Mac: 9}.Encode(good[:])
	garbage := bytes.Repeat([]byte{0xff}, MessageSize) // an op code no backend emits
	// The chaos plane's connection endings: dropped exactly at a frame
	// boundary, dropped mid-frame, and corruption inside a full-size frame.
	f.Add(bytes.Repeat(good[:], 3), uint64(1), uint8(4), uint16(0))
	f.Add(append(bytes.Repeat(good[:], 2), good[:MessageSize/2]...), uint64(2), uint8(0), uint16(1))
	f.Add(append(append(append([]byte{}, good[:]...), garbage...), good[:]...), uint64(3), uint8(8), uint16(2))
	f.Add(good[:1], uint64(4), uint8(1), uint16(340))
	f.Add([]byte{}, uint64(5), uint8(2), uint16(399))
	// One read spans several Decode calls and ends mid-frame: chunk state
	// 2258 makes its first three reads fill the staging buffer (40 frames),
	// out takes three frames a call, and the stream stops 7 bytes into frame
	// 100, so the third read brings 20 frames and the partial one.
	f.Add(append(bytes.Repeat(good[:], 100), good[:7]...), uint64(2258), uint8(2), uint16(39))

	f.Fuzz(func(t *testing.T, data []byte, chunkSeed uint64, slots uint8, staging uint16) {
		// Reference: one pass over the contiguous bytes.
		var want []Message
		wantBadFrame := false
		for off := 0; off+MessageSize <= len(data); off += MessageSize {
			m, err := DecodeMessage(data[off:])
			if err != nil {
				wantBadFrame = true
				break
			}
			want = append(want, m)
		}
		wantTrailing := 0
		if !wantBadFrame {
			wantTrailing = len(data) % MessageSize
		}

		r := &chunkReader{data: data, state: chunkSeed}
		dec := NewFrameDecoder(r)
		dec.Grow(1 + int(staging)%400)
		out := make([]Message, 1+int(slots)%16)
		var got []Message
		var end error
		for calls := 0; ; calls++ {
			if calls > len(data)/MessageSize+2 {
				t.Fatalf("no progress after %d calls over %d bytes", calls, len(data))
			}
			n, ok, err := dec.Decode(out)
			got = append(got, out[:n]...)
			staged := r.pos - len(got)*MessageSize
			if errors.As(err, new(*TruncatedFrameError)) {
				staged = 0 // the partial frame is discarded with the error
			}
			if dec.Buffered() != staged/MessageSize || dec.wr-dec.rd != staged {
				t.Fatalf("read %d bytes, decoded %d frames: Buffered=%d, %d bytes staged, want %d",
					r.pos, len(got), dec.Buffered(), dec.wr-dec.rd, staged)
			}
			if err != nil {
				if ok || !errors.Is(err, ErrIntegrity) {
					t.Fatalf("terminal error must be ErrIntegrity with ok=false: ok=%t err=%v", ok, err)
				}
				end = err
				break
			}
			if !ok {
				break
			}
			if n == 0 {
				t.Fatal("ok=true with no frames and no error")
			}
		}

		if len(got) != len(want) {
			t.Fatalf("decoded %d messages, contiguous pass decodes %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("message %d: got %+v want %+v", i, got[i], want[i])
			}
		}
		var trunc *TruncatedFrameError
		switch {
		case wantBadFrame:
			if end == nil || errors.As(end, &trunc) {
				t.Fatalf("undecodable frame %d: ended with %v, want a decode failure", len(want), end)
			}
		case wantTrailing > 0:
			if !errors.As(end, &trunc) || trunc.Trailing != wantTrailing {
				t.Fatalf("stream ends %d bytes into a frame: ended with %v", wantTrailing, end)
			}
		default:
			if end != nil {
				t.Fatalf("stream ends at a frame boundary: ended with %v, want a clean close", end)
			}
		}
	})
}
