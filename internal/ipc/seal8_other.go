//go:build !amd64

package ipc

import "unsafe"

// useAVX512 is false off amd64: MacSeal8 and SealFrames run the portable body.
const useAVX512 = false

func macSeal8AVX512(k *MacKey, base unsafe.Pointer, tags *[8]uint64) {
	panic("ipc: no 8-lane SipHash kernel on this architecture")
}
