//go:build !race

#include "textflag.h"

// func Publish(p *atomic.Uint64, v uint64)
TEXT ·Publish(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ v+8(FP), BX
	MOVQ BX, 0(AX)
	RET
