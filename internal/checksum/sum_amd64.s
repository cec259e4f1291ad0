//go:build amd64 && !purego

#include "textflag.h"

// The copy and checksum loop of the Table 1 manipulations, on AVX2: one
// body, BODY, in three forms that differ only in what its hooks do.
// STORE(MOV, R, off) writes a register of the source to dst with MOV,
// or nothing; SUM(Y, T, LO, HI) adds its four
// little-endian 64-bit words into the four 64-bit lanes of LO, wrapping,
// and their high 32-bit halves into those of HI, or nothing. Each form
// defines the hooks, then its TEXT expands BODY. A 128-byte step takes
// four loads, alternate registers summing into their own rows (Y8, Y9
// and Y10, Y11) so that neither waits on the other; then steps of 64,
// 32, 16 and 8 bytes finish n, a multiple of 8. Each high half is under
// 2^32, so below 2^32 words (n < 2^35) no total of them wraps.
//
// Registers: SI the source, DI the destination, CX the bytes left,
// Y8-Y11 the rows, Y0-Y7 scratch.
#define BODY \
	CMPQ CX, $128; JB sub64; \
loop: \
	VMOVDQU 0(SI), Y0; VMOVDQU 32(SI), Y1; VMOVDQU 64(SI), Y4; VMOVDQU 96(SI), Y5; \
	STORE(VMOVDQU, Y0, 0); STORE(VMOVDQU, Y1, 32); STORE(VMOVDQU, Y4, 64); STORE(VMOVDQU, Y5, 96); \
	SUM(Y0, Y2, Y8, Y9); SUM(Y1, Y3, Y10, Y11); SUM(Y4, Y6, Y8, Y9); SUM(Y5, Y7, Y10, Y11); \
	ADDQ $128, SI; ADDQ $128, DI; SUBQ $128, CX; \
	CMPQ CX, $128; JAE loop; \
sub64: \
	TESTQ $64, CX; JZ sub32; \
	VMOVDQU 0(SI), Y0; VMOVDQU 32(SI), Y1; \
	STORE(VMOVDQU, Y0, 0); STORE(VMOVDQU, Y1, 32); \
	SUM(Y0, Y2, Y8, Y9); SUM(Y1, Y3, Y10, Y11); \
	ADDQ $64, SI; ADDQ $64, DI; \
sub32: \
	TESTQ $32, CX; JZ sub16; \
	VMOVDQU 0(SI), Y0; STORE(VMOVDQU, Y0, 0); SUM(Y0, Y2, Y8, Y9); \
	ADDQ $32, SI; ADDQ $32, DI; \
sub16: \
	TESTQ $16, CX; JZ sub8; \
	VMOVDQU 0(SI), X0; STORE(VMOVDQU, X0, 0); SUM(Y0, Y2, Y10, Y11); \
	ADDQ $16, SI; ADDQ $16, DI; \
sub8: \
	TESTQ $8, CX; JZ done; \
	VMOVQ 0(SI), X0; STORE(VMOVQ, X0, 0); SUM(Y0, Y2, Y8, Y9); \
done:

// The two sum forms start with empty rows and end by adding them up.
// LO less HI<<32 is, lane by lane, the exact total of the low halves,
// L; HI is that of the high halves, H. The bytes' sum as little-endian
// 64-bit words is L + H·2^32, which is L + H<<32 + H>>32 mod 2^64-1
// (2^64 = 1), the carries out of bit 63 added back at the bottom: a
// value in 1 … 2^64-1 unless every word was zero, which is what
// checksum.Wide arrives at for the same words.
#define ZERO \
	VPXOR Y8, Y8, Y8; VPXOR Y9, Y9, Y9; VPXOR Y10, Y10, Y10; VPXOR Y11, Y11, Y11

#define FINISH \
	VPADDQ Y10, Y8, Y8; VPADDQ Y11, Y9, Y9; VPSLLQ $32, Y9, Y0; VPSUBQ Y0, Y8, Y8; \
	VEXTRACTI128 $1, Y8, X0; VPADDQ X0, X8, X8; VPSHUFD $0x4E, X8, X0; VPADDQ X0, X8, X8; \
	VEXTRACTI128 $1, Y9, X1; VPADDQ X1, X9, X9; VPSHUFD $0x4E, X9, X1; VPADDQ X1, X9, X9; \
	VMOVQ X8, AX; VMOVQ X9, BX; VZEROUPPER; \
	MOVQ BX, DX; SHLQ $32, DX; SHRQ $32, BX; \
	ADDQ DX, AX; ADCQ BX, AX; ADCQ $0, AX

#define SUM(Y, T, LO, HI) VPSRLQ $32, Y, T; VPADDQ Y, LO, LO; VPADDQ T, HI, HI

#define STORE(MOV, R, off) MOV R, off(DI)

// func copySumAVX2(dst, src *byte, n int) uint64
TEXT ·copySumAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	ZERO
	BODY
	FINISH
	MOVQ AX, ret+24(FP)
	RET

#undef STORE
#define STORE(MOV, R, off)

// func sumAVX2(src *byte, n int) uint64
TEXT ·sumAVX2(SB), NOSPLIT, $0-24
	MOVQ src+0(FP), SI
	MOVQ n+8(FP), CX
	ZERO
	BODY
	FINISH
	MOVQ AX, ret+16(FP)
	RET

#undef SUM
#undef STORE
#define SUM(Y, T, LO, HI)
#define STORE(MOV, R, off) MOV R, off(DI)

// func copyAVX2(dst, src *byte, n int)
TEXT ·copyAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	BODY
	VZEROUPPER
	RET
