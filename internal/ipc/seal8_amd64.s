#include "textflag.h"

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The byte offset of each lane's frame from the first: a 48-byte stride.
DATA sipLanes<>+0(SB)/8, $0
DATA sipLanes<>+8(SB)/8, $48
DATA sipLanes<>+16(SB)/8, $96
DATA sipLanes<>+24(SB)/8, $144
DATA sipLanes<>+32(SB)/8, $192
DATA sipLanes<>+40(SB)/8, $240
DATA sipLanes<>+48(SB)/8, $288
DATA sipLanes<>+56(SB)/8, $336
GLOBL sipLanes<>(SB), RODATA|NOPTR, $64

// SIPROUND advances the eight SipHash states (v0, v1, v2, v3) = (Z0, Z1, Z2,
// Z3) by one SipRound. The rotations by 32 are dword shuffles, which run on a
// different port from VPROLQ.
#define SIPROUND \
	VPADDQ  Z1, Z0, Z0; \
	VPADDQ  Z3, Z2, Z2; \
	VPROLQ  $13, Z1, Z1; \
	VPROLQ  $16, Z3, Z3; \
	VPXORQ  Z0, Z1, Z1; \
	VPXORQ  Z2, Z3, Z3; \
	VPSHUFD $0xb1, Z0, Z0; \
	VPADDQ  Z1, Z2, Z2; \
	VPADDQ  Z3, Z0, Z0; \
	VPROLQ  $17, Z1, Z1; \
	VPROLQ  $21, Z3, Z3; \
	VPXORQ  Z2, Z1, Z1; \
	VPXORQ  Z0, Z3, Z3; \
	VPSHUFD $0xb1, Z2, Z2

// COMPRESS absorbs the message word w (one per lane) with two SipRounds.
#define COMPRESS(w) \
	VPXORQ w, Z3, Z3; \
	SIPROUND; \
	SIPROUND; \
	VPXORQ w, Z0, Z0

// func macSeal8AVX512(k *MacKey, base unsafe.Pointer, tags *[8]uint64)
TEXT ·macSeal8AVX512(SB), NOSPLIT, $0-24
	MOVQ k+0(FP), AX
	MOVQ base+8(FP), SI
	MOVQ tags+16(FP), DI

	// Load the five input words of every lane: (Op, PID) as one little-endian
	// word, Arg1, Arg2, Arg3 and Seq. Each gather clears its mask.
	VMOVDQU64 sipLanes<>(SB), Z31
	KXNORW K0, K0, K1
	KXNORW K0, K0, K2
	KXNORW K0, K0, K3
	KXNORW K0, K0, K4
	KXNORW K0, K0, K5
	VPGATHERQQ 0(SI)(Z31*1), K1, Z16
	VPGATHERQQ 8(SI)(Z31*1), K2, Z17
	VPGATHERQQ 16(SI)(Z31*1), K3, Z18
	VPGATHERQQ 24(SI)(Z31*1), K4, Z19
	VPGATHERQQ 32(SI)(Z31*1), K5, Z20
	// MacSeal's first word is Op<<32 | PID: the loaded word's halves swapped.
	VPSHUFD $0xb1, Z16, Z16
	// The finalization word: the input length in the top byte.
	MOVQ $0x2800000000000000, DX
	VPBROADCASTQ DX, Z21

	// The initial state, the same in every lane.
	MOVQ 0(AX), BX
	MOVQ 8(AX), CX
	MOVQ $0x736f6d6570736575, DX
	XORQ BX, DX
	VPBROADCASTQ DX, Z0
	MOVQ $0x646f72616e646f6d, DX
	XORQ CX, DX
	VPBROADCASTQ DX, Z1
	MOVQ $0x6c7967656e657261, DX
	XORQ BX, DX
	VPBROADCASTQ DX, Z2
	MOVQ $0x7465646279746573, DX
	XORQ CX, DX
	VPBROADCASTQ DX, Z3

	COMPRESS(Z16)
	COMPRESS(Z17)
	COMPRESS(Z18)
	COMPRESS(Z19)
	COMPRESS(Z20)
	COMPRESS(Z21)

	MOVQ $0xff, DX
	VPBROADCASTQ DX, Z22
	VPXORQ Z22, Z2, Z2
	SIPROUND
	SIPROUND
	SIPROUND
	SIPROUND

	// tag = v0 ^ v1 ^ v2 ^ v3
	VPTERNLOGQ $0x96, Z2, Z1, Z0
	VPXORQ Z3, Z0, Z0
	VMOVDQU64 Z0, (DI)
	VZEROUPPER
	RET
