package ipc

import "unsafe"

// useAVX512 selects the 8-lane SipHash kernel: the CPU has AVX-512F and the
// OS saves the opmask and ZMM registers across context switches.
var useAVX512 = haveAVX512()

func haveAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 { // OSXSAVE: XGETBV works
		return false
	}
	if _, ebx, _, _ := cpuid(7, 0); ebx&(1<<16) == 0 { // AVX512F
		return false
	}
	// XCR0: SSE and AVX state (bits 1, 2), opmask, ZMM0-15 upper halves and
	// ZMM16-31 (bits 5, 6, 7).
	xcr0, _ := xgetbv()
	return xcr0&0xe6 == 0xe6
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (eax, edx uint32)

// macSeal8AVX512 writes into tags the SipHash-2-4 tags MacSeal computes for
// the eight consecutive 48-byte frames at base, laid out as Message is in
// memory (which on amd64 is its little-endian wire encoding). Each SipHash
// state word is one ZMM register holding the eight frames' copies; a gather
// with a 48-byte stride loads one input word of all eight frames.
//
//go:noescape
func macSeal8AVX512(k *MacKey, base unsafe.Pointer, tags *[8]uint64)
