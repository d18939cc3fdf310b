//go:build amd64

#include "textflag.h"

// The float32 squared-L2 kernel, bit-identical to l2Generic. Lane j of a YMM
// accumulator holds l2Generic's s_j: it sees the same elements in the same
// order, and a separate VSUBPS, VMULPS and VADDPS round exactly as the
// scalar subtract, multiply and add do (no FMA: a fused multiply-add rounds
// once, not twice, and would change the bits). HSUM then folds the lanes in
// l2Generic's order (((s0+s1)+(s2+s3))+(s4+s5))+(s6+s7); the dim%8 tail is
// added in Go. The kernel covers the first n (a multiple of 8) elements only.

// HSUM reduces the eight lanes of Y into the low float of X (Y's low half)
// in l2Generic's order. Clobbers X13-X15.
#define HSUM(Y, X) \
	VEXTRACTF128 $1, Y, X15; \
	VHADDPS      X15, X, X14; \
	VMOVSHDUP    X14, X13; \
	VADDSS       X13, X14, X; \
	VMOVHLPS     X14, X14, X13; \
	VADDSS       X13, X, X; \
	VMOVSHDUP    X13, X13; \
	VADDSS       X13, X, X

// func l2AVX2(a, b *float32, n int) float32
TEXT ·l2AVX2(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	SHLQ $2, CX                   // n in bytes
	XORQ AX, AX
	VXORPS Y0, Y0, Y0

loop:
	VMOVUPS (SI)(AX*1), Y1
	VSUBPS  (DI)(AX*1), Y1, Y1    // a - b
	VMULPS  Y1, Y1, Y1
	VADDPS  Y1, Y0, Y0
	ADDQ $32, AX
	CMPQ AX, CX
	JB   loop

	HSUM(Y0, X0)
	VZEROUPPER
	MOVSS X0, ret+24(FP)
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
