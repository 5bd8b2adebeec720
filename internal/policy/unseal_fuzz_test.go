package policy

import (
	"reflect"
	"testing"

	"herqules/internal/ipc"
)

// tamperedRun decodes fuzz input into a sealed run of one process's frames
// with tampering, and the size of the windows to unseal it in. data[0] picks
// the window size; every following three bytes make one frame: its contents,
// what the transport did to it (three in four frames are left alone), and a
// parameter of that.
func tamperedRun(data []byte, pid int32, key, other ipc.MacKey) (run []ipc.Message, window int) {
	if len(data) == 0 {
		return nil, 1
	}
	window = 1 + int(data[0])%70
	data = data[1:]
	for seq := uint64(1); len(data) >= 3 && seq <= 200; seq, data = seq+1, data[3:] {
		body, kind, param := data[0], data[1], data[2]
		m := ipc.Message{
			Op: ipc.Op(body) % ipc.NumOps, PID: pid, Seq: seq,
			Arg1: uint64(body) * 0x9e3779b97f4a7c15, Arg2: uint64(param), Arg3: seq << 40,
		}
		m.Mac = ipc.MacSeal(key, m, m.Seq)
		switch kind % 16 {
		case 12: // a tag bit flipped
			m.Mac ^= 1 << (param % 64)
		case 13: // a body bit flipped
			m.Arg1 ^= 1 << (param % 64)
		case 14: // an earlier position, validly sealed: a replay
			m.Seq -= min(m.Seq, 1+uint64(param%4))
			m.Mac = ipc.MacSeal(key, m, m.Seq)
		case 15: // sealed under another process's key: a splice
			m.Mac = ipc.MacSeal(other, m, m.Seq)
		}
		run = append(run, m)
	}
	return run, window
}

// checkUnsealRun is the differential check behind FuzzUnsealRun: window by
// window, UnsealRun must stop where a loop of one-message Unseal calls stops,
// with the same violation, leaving the same bytes — the authenticated prefix
// stripped, everything from the rejected frame on untouched — and must give
// the same answer again when asked about the rejected frame. Along the way
// ipc.MacSeal8 must agree with MacSeal on every group of eight adjacent frames.
func checkUnsealRun(t *testing.T, data []byte) {
	const pid = 7
	kr := NewKeyringSeeded(3)
	kr.Program(pid)
	kr.Program(pid + 1)
	key, _ := kr.Key(pid)
	other, _ := kr.Key(pid + 1)
	run, window := tamperedRun(data, pid, key, other)

	for i := 0; i+8 <= len(run); i++ {
		tags := ipc.MacSeal8(key, (*[8]ipc.Message)(run[i:]))
		for j, tag := range tags {
			if m := run[i+j]; tag != ipc.MacSeal(key, m, m.Seq) {
				t.Fatalf("MacSeal8 on frames %d..%d, lane %d = %#x, MacSeal gives %#x", i, i+7, j, tag, ipc.MacSeal(key, m, m.Seq))
			}
		}
	}

	fast, slow := NewHMAC(kr), NewHMAC(kr)
	fast.ProcessStarted(pid)
	slow.ProcessStarted(pid)
	for start := 0; start < len(run); start += window {
		in := run[start:min(start+window, len(run))]
		want := append([]ipc.Message(nil), in...)
		wantN, wantV := len(want), (*Violation)(nil)
		for i := range want {
			un, v := slow.Unseal(want[i])
			if v != nil {
				wantN, wantV = i, v
				break
			}
			want[i] = un
		}
		got := append([]ipc.Message(nil), in...)
		n, v := fast.UnsealRun(got)
		if n != wantN || !reflect.DeepEqual(v, wantV) {
			t.Fatalf("window at %d of %d frames: UnsealRun = %d, %v; the scalar loop stops at %d, %v", start, len(in), n, v, wantN, wantV)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window at %d: frames after UnsealRun\n got  %v\n want %v", start, got, want)
		}
		if v == nil {
			continue
		}
		if n2, v2 := fast.UnsealRun(got[n:]); n2 != 0 || !reflect.DeepEqual(v2, v) {
			t.Fatalf("window at %d: asked again from the rejected frame, UnsealRun = %d, %v; want 0, %v", start, n2, v2, v)
		}
		return // a reject is fatal: the stream ends here
	}
}

func FuzzUnsealRun(f *testing.F) {
	clean := make([]byte, 1+3*130)
	for i := range clean {
		clean[i] = byte(i * 7)
		if i%3 == 2 {
			clean[i] = 0 // kind: untouched
		}
	}
	f.Add(clean)
	// Every lane of a group, both sides of a window edge and of a group
	// edge, and the remainder behind the last group.
	for _, at := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 62, 63, 64, 65, 71, 72, 127, 128, 129} {
		for kind := byte(12); kind < 16; kind++ {
			d := append([]byte(nil), clean...)
			d[0] = 63 // windows of 64
			d[1+3*at+1], d[1+3*at+2] = kind, byte(at)
			f.Add(d)
		}
	}
	// Windows that are not a multiple of eight (data[0] is one less than
	// the window): groups straddle their edges.
	for _, w := range []int{5, 9, 13, 45} {
		for _, at := range []int{w - 1, w, w + 3, 2*w + 7} {
			d := append([]byte(nil), clean...)
			d[0] = byte(w - 1)
			d[1+3*at+1], d[1+3*at+2] = 13, byte(at)
			f.Add(d)
		}
	}
	f.Fuzz(checkUnsealRun)
}
