//go:build amd64 && !purego

#include "textflag.h"

// VPSHUFB masks that rotate every 32-bit word left by 16 and by 8 bits.
DATA rol16<>+0x00(SB)/8, $0x0504070601000302
DATA rol16<>+0x08(SB)/8, $0x0D0C0F0E09080B0A
DATA rol16<>+0x10(SB)/8, $0x0504070601000302
DATA rol16<>+0x18(SB)/8, $0x0D0C0F0E09080B0A
GLOBL rol16<>(SB), RODATA|NOPTR, $32

DATA rol8<>+0x00(SB)/8, $0x0605040702010003
DATA rol8<>+0x08(SB)/8, $0x0E0D0C0F0A09080B
DATA rol8<>+0x10(SB)/8, $0x0605040702010003
DATA rol8<>+0x18(SB)/8, $0x0E0D0C0F0A09080B
GLOBL rol8<>(SB), RODATA|NOPTR, $32

// One ChaCha20 quarter-round on whole rows: A, B, C, D each hold one
// row of the 4×4 state of two blocks (one per 128-bit half), so the
// four columns of both blocks go at once. T is scratch for the two
// rotates VPSHUFB cannot do.
#define QROUND(A, B, C, D, T) \
	VPADDD B, A, A; VPXOR A, D, D; VPSHUFB rol16<>(SB), D, D; \
	VPADDD D, C, C; VPXOR C, B, B; VPSLLD $12, B, T; VPSRLD $20, B, B; VPXOR T, B, B; \
	VPADDD B, A, A; VPXOR A, D, D; VPSHUFB rol8<>(SB), D, D; \
	VPADDD D, C, C; VPXOR C, B, B; VPSLLD $7, B, T; VPSRLD $25, B, B; VPXOR T, B, B

// The state of four quads fills all sixteen registers, so a round
// parks one C row on the stack and uses its register as T: Y11 while
// quads 0-2 go, then Y8 for quad 3.
#define ROUND4 \
	VMOVDQU Y11, 0(SP); \
	QROUND(Y0, Y4, Y8, Y12, Y11); \
	QROUND(Y1, Y5, Y9, Y13, Y11); \
	QROUND(Y2, Y6, Y10, Y14, Y11); \
	VMOVDQU 0(SP), Y11; \
	VMOVDQU Y8, 0(SP); \
	QROUND(Y3, Y7, Y11, Y15, Y8); \
	VMOVDQU 0(SP), Y8

// Rotate rows B, C, D of every quad left by b, c, d words, which turns
// columns into diagonals ($0x39, $0x4E, $0x93) and back ($0x93, $0x4E,
// $0x39).
#define SHUFFLE4(b, c, d) \
	VPSHUFD b, Y4, Y4; VPSHUFD b, Y5, Y5; VPSHUFD b, Y6, Y6; VPSHUFD b, Y7, Y7; \
	VPSHUFD c, Y8, Y8; VPSHUFD c, Y9, Y9; VPSHUFD c, Y10, Y10; VPSHUFD c, Y11, Y11; \
	VPSHUFD d, Y12, Y12; VPSHUFD d, Y13, Y13; VPSHUFD d, Y14, Y14; VPSHUFD d, Y15, Y15

// A quad holds rows, the keystream wants blocks: the low halves of
// A, B, C, D are the first block's 64 bytes, the high halves the
// second's.
#define STORE2(A, B, C, D, T, off) \
	VPERM2I128 $0x20, B, A, T; VMOVDQU T, (off+0)(DI); \
	VPERM2I128 $0x20, D, C, T; VMOVDQU T, (off+32)(DI); \
	VPERM2I128 $0x31, B, A, T; VMOVDQU T, (off+64)(DI); \
	VPERM2I128 $0x31, D, C, T; VMOVDQU T, (off+96)(DI)

// One Poly1305 block on the integer ports, while the vector ports run
// the rounds around it: if DI > 0, h += the 16 bytes at SI with the
// 2^128 bit, h *= r, partly reduced mod 2^130 - 5, as MAC.block does;
// then SI moves on a block and DI counts down. h is R8, R9, R10 and r
// is R11, R12; AX, BX, CX, DX, R13, R14 are scratch.
#define POLY(skip) \
	TESTQ DI, DI; JZ skip; \
	ADDQ 0(SI), R8; ADCQ 8(SI), R9; ADCQ $1, R10; LEAQ 16(SI), SI; \
	MOVQ R11, AX; MULQ R8; MOVQ AX, BX; MOVQ DX, CX; \
	MOVQ R11, AX; MULQ R9; ADDQ AX, CX; ADCQ $0, DX; \
	MOVQ R11, R13; IMULQ R10, R13; ADDQ DX, R13; \
	MOVQ R12, AX; MULQ R8; ADDQ AX, CX; ADCQ $0, DX; MOVQ DX, R8; \
	MOVQ R12, R14; IMULQ R10, R14; \
	MOVQ R12, AX; MULQ R9; ADDQ AX, R13; ADCQ DX, R14; \
	ADDQ R8, R13; ADCQ $0, R14; \
	MOVQ BX, R8; MOVQ CX, R9; MOVQ R13, R10; ANDQ $3, R10; \
	ANDQ $-4, R13; ADDQ R13, R8; ADCQ R14, R9; ADCQ $0, R10; \
	SHRQ $2, R14, R13; SHRQ $2, R14; ADDQ R13, R8; ADCQ R14, R9; ADCQ $0, R10; \
	DECQ DI; \
skip:

// The ChaCha20 constants, "expand 32-byte k", as a row of two blocks.
DATA sigma<>+0x00(SB)/8, $0x3320646e61707865
DATA sigma<>+0x08(SB)/8, $0x6b20657479622d32
DATA sigma<>+0x10(SB)/8, $0x3320646e61707865
DATA sigma<>+0x18(SB)/8, $0x6b20657479622d32
GLOBL sigma<>(SB), RODATA|NOPTR, $32

// func keystream8mac(key *Key, nonce *[12]byte, ctrs *[8]uint32, out *[512]byte, mac *MAC, msg *byte, nblk int)
//
// Block i of out is the ChaCha20 block of (key, nonce) at counter
// ctrs[i]. The kernel lays out the initial state itself, as rows of two
// blocks: the constants, key words 0-3, key words 4-7 — each the same
// in both halves — and per quad the counter‖nonce row of its two
// blocks, counters 2q and 2q+1. Quad q (registers Yq, Y4+q, Y8+q, Y12+q)
// makes blocks 2q and 2q+1 of out. The rows but the constants are kept
// in the frame for the final add. Four times per double round it also
// folds one of the nblk <= 40 whole Poly1305 blocks at msg into mac,
// whose r0, r1 (offsets 0, 8) it reads and h0, h1, h2 (32, 40, 48) it
// reads and writes; with nblk = 0 mac and msg are not touched. It reads
// the key's eight words (Key.k, at offset 0), the nonce's twelve bytes
// and the eight counters, and nothing else is read or written.
//
// Frame: 0 scratch for a parked row, 32 and 64 the key rows, 96-223 the
// four counter rows, 224 the double-round count.
TEXT ·keystream8mac(SB), NOSPLIT, $232-56
	// Counter rows: the nonce in words 1-3 of each half, blended with a
	// pair of counters zero-extended to qwords and spread so that one
	// lands in word 0 of each half.
	MOVQ nonce+8(FP), BX
	MOVQ ctrs+16(FP), CX
	VMOVQ 0(BX), X12
	VPINSRD $2, 8(BX), X12, X12
	VPSLLDQ $4, X12, X12
	VINSERTI128 $1, X12, Y12, Y12
	VPMOVZXDQ 0(CX), Y0
	VPMOVZXDQ 16(CX), Y1
	VPERMQ $0xFA, Y0, Y13
	VPERMQ $0x50, Y1, Y14
	VPERMQ $0xFA, Y1, Y15
	VPERMQ $0x50, Y0, Y0
	VPBLENDD $0x11, Y13, Y12, Y13
	VPBLENDD $0x11, Y14, Y12, Y14
	VPBLENDD $0x11, Y15, Y12, Y15
	VPBLENDD $0x11, Y0, Y12, Y12
	VMOVDQU Y12, 96(SP)
	VMOVDQU Y13, 128(SP)
	VMOVDQU Y14, 160(SP)
	VMOVDQU Y15, 192(SP)

	MOVQ key+0(FP), AX
	VMOVDQU sigma<>(SB), Y0
	VBROADCASTI128 0(AX), Y4
	VBROADCASTI128 16(AX), Y8
	VMOVDQU Y4, 32(SP)
	VMOVDQU Y8, 64(SP)
	VMOVDQA Y0, Y1
	VMOVDQA Y0, Y2
	VMOVDQA Y0, Y3
	VMOVDQA Y4, Y5
	VMOVDQA Y4, Y6
	VMOVDQA Y4, Y7
	VMOVDQA Y8, Y9
	VMOVDQA Y8, Y10
	VMOVDQA Y8, Y11
	MOVQ $10, 224(SP)
	MOVQ nblk+48(FP), DI
	TESTQ DI, DI
	JZ rounds
	MOVQ mac+32(FP), AX
	MOVQ 0(AX), R11
	MOVQ 8(AX), R12
	MOVQ 32(AX), R8
	MOVQ 40(AX), R9
	MOVQ 48(AX), R10
	MOVQ msg+40(FP), SI

rounds:
	ROUND4
	POLY(slot0)
	SHUFFLE4($0x39, $0x4E, $0x93)
	POLY(slot1)
	ROUND4
	POLY(slot2)
	SHUFFLE4($0x93, $0x4E, $0x39)
	POLY(slot3)
	DECQ 224(SP)
	JNZ rounds

	CMPQ nblk+48(FP), $0
	JEQ sum
	MOVQ mac+32(FP), AX
	MOVQ R8, 32(AX)
	MOVQ R9, 40(AX)
	MOVQ R10, 48(AX)

sum:
	MOVQ out+24(FP), DI
	VPADDD sigma<>(SB), Y0, Y0
	VPADDD sigma<>(SB), Y1, Y1
	VPADDD sigma<>(SB), Y2, Y2
	VPADDD sigma<>(SB), Y3, Y3
	VPADDD 32(SP), Y4, Y4
	VPADDD 32(SP), Y5, Y5
	VPADDD 32(SP), Y6, Y6
	VPADDD 32(SP), Y7, Y7
	VPADDD 64(SP), Y8, Y8
	VPADDD 64(SP), Y9, Y9
	VPADDD 64(SP), Y10, Y10
	VPADDD 64(SP), Y11, Y11
	VPADDD 96(SP), Y12, Y12
	VPADDD 128(SP), Y13, Y13
	VPADDD 160(SP), Y14, Y14
	VPADDD 192(SP), Y15, Y15

	VMOVDQU Y15, 0(SP)
	STORE2(Y0, Y4, Y8, Y12, Y15, 0)
	STORE2(Y1, Y5, Y9, Y13, Y15, 128)
	STORE2(Y2, Y6, Y10, Y14, Y15, 256)
	VMOVDQU 0(SP), Y15
	STORE2(Y3, Y7, Y11, Y15, Y0, 384)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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
