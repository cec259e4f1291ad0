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

// The Poly1305 side, on the integer ports while the vector ports run
// the rounds around it. h is R8, R9, R10 and r is R11, R12, as the
// MAC's limbs; SI walks the message and DI counts the pairs left to
// fold; AX, BX, CX, DX, R13 and R14 are scratch. The frame at f holds,
// for the pair step, U = r² mod p, V = U·2^64 mod p and W = V·2^64 mod
// p, three limbs each (f+0, f+24, f+48), and s1 = 5·r1/4 (f+72).

// POWERS fills the frame at f from r. U is the 248-bit square with its
// bits from 130 up folded back in times 5, a full 130-bit value and not
// a clamped one; each TIMES64 shifts U, V up a limb and folds the limb
// that passes 2^130 back in the same way. Every value is below
// 2^130 + 2^68, so its top limb is at most 4.
#define POWERS(f) \
	MOVQ R11, AX; MULQ R11; MOVQ AX, BX; MOVQ DX, CX; \
	MOVQ R11, AX; MULQ R12; ADDQ AX, AX; ADCQ DX, DX; ADDQ AX, CX; ADCQ $0, DX; MOVQ DX, R13; \
	MOVQ R12, AX; MULQ R12; ADDQ AX, R13; ADCQ $0, DX; MOVQ DX, R14; \
	MOVQ R13, AX; ANDQ $3, R13; ANDQ $-4, AX; ADDQ AX, BX; ADCQ R14, CX; ADCQ $0, R13; \
	SHRQ $2, R14, AX; SHRQ $2, R14; ADDQ AX, BX; ADCQ R14, CX; ADCQ $0, R13; \
	MOVQ BX, (f+0)(SP); MOVQ CX, (f+8)(SP); MOVQ R13, (f+16)(SP); \
	TIMES64; MOVQ BX, (f+24)(SP); MOVQ CX, (f+32)(SP); MOVQ R13, (f+40)(SP); \
	TIMES64; MOVQ BX, (f+48)(SP); MOVQ CX, (f+56)(SP); MOVQ R13, (f+64)(SP); \
	MOVQ R12, AX; SHRQ $2, AX; ADDQ R12, AX; MOVQ AX, (f+72)(SP)

// TIMES64 sets x = BX, CX, R13 to x·2^64 mod 2^130 - 5, partly reduced:
// (0, x0, x1 & 3) plus 5 times x1:x2 >> 2.
#define TIMES64 \
	MOVQ CX, AX; ANDQ $-4, AX; ANDQ $3, CX; MOVQ R13, DX; \
	MOVQ AX, R14; SHRQ $2, R13, R14; SHRQ $2, R13; \
	ADDQ R14, AX; ADCQ DX, BX; ADCQ $0, CX; ADDQ R13, BX; ADCQ $0, CX; \
	MOVQ CX, R13; MOVQ BX, CX; MOVQ AX, BX

// c2:c1:c0 += x·y, one product into a column and the next, carrying
// into a third.
#define MACC(x, y, c0, c1, c2) MOVQ x, AX; MULQ y; ADDQ AX, c0; ADCQ DX, c1; ADCQ $0, c2

// PAIR folds the next two blocks m1, m2 at SI, if any pairs are left:
// h = (h + m1)·r² + m2·r, each block with its 2^128 bit, which is two
// steps of MAC.block with one multiply chain and one reduction. First,
// off that chain, Q = m2·r in t0-t2 (BX, CX, R13), reduced as MAC.block
// reduces with the clamped r. Then a = h + m1 in R8-R10, and
// a·r² = a0·U + a1·V + a2·W mod p adds in: every product is a limb
// times a 130-bit value, so t stays below 2^196 (t3 in R14) and one
// fold of its bits from 130 up leaves h2 at most 4. a2 and the top
// limbs are small but their products with a full limb are not, so all
// but a2·W's top limb are full 128-bit multiplies.
#define PAIR(f, skip) \
	TESTQ DI, DI; JZ skip; \
	MOVQ 16(SI), AX; MULQ R11; MOVQ AX, BX; MOVQ DX, CX; \
	MOVQ 24(SI), AX; MULQ (f+72)(SP); ADDQ AX, BX; ADCQ DX, CX; \
	MOVQ 16(SI), AX; MULQ R12; MOVQ DX, R13; ADDQ AX, CX; ADCQ $0, R13; \
	MOVQ 24(SI), AX; MULQ R11; ADDQ AX, CX; ADCQ DX, R13; \
	ADDQ (f+72)(SP), CX; ADCQ R11, R13; \
	ADDQ 0(SI), R8; ADCQ 8(SI), R9; ADCQ $1, R10; XORL R14, R14; \
	MACC((f+0)(SP), R8, BX, CX, R13); MACC((f+24)(SP), R9, BX, CX, R13); \
	MACC((f+48)(SP), R10, BX, CX, R13); \
	MACC((f+8)(SP), R8, CX, R13, R14); MACC((f+32)(SP), R9, CX, R13, R14); \
	MACC((f+56)(SP), R10, CX, R13, R14); \
	MOVQ (f+16)(SP), AX; MULQ R8; ADDQ AX, R13; ADCQ DX, R14; \
	MOVQ (f+40)(SP), AX; MULQ R9; ADDQ AX, R13; ADCQ DX, R14; \
	MOVQ (f+64)(SP), AX; IMULQ R10, AX; ADDQ AX, R13; ADCQ $0, R14; \
	MOVQ BX, R8; MOVQ CX, R9; MOVQ R13, R10; ANDQ $3, R10; ANDQ $-4, R13; \
	ADDQ R13, R8; ADCQ R14, R9; ADCQ $0, R10; \
	SHRQ $2, R14, R13; SHRQ $2, R14; ADDQ R13, R8; ADCQ R14, R9; ADCQ $0, R10; \
	LEAQ 32(SI), SI; DECQ DI; \
skip:

// The ChaCha20 constants, "expand 32-byte k", as a row of two blocks.
DATA sigma<>+0x00(SB)/8, $0x3320646e61707865
DATA sigma<>+0x08(SB)/8, $0x6b20657479622d32
DATA sigma<>+0x10(SB)/8, $0x3320646e61707865
DATA sigma<>+0x18(SB)/8, $0x6b20657479622d32
GLOBL sigma<>(SB), RODATA|NOPTR, $32

// func keystream8mac(key *Key, nonce *[12]byte, ctrs *[8]uint32, out *[512]byte, mac *MAC, msg *byte, npair int)
//
// Block i of out is the ChaCha20 block of (key, nonce) at counter
// ctrs[i]. The kernel lays out the initial state itself, as rows of two
// blocks: the constants, key words 0-3, key words 4-7 — each the same
// in both halves — and per quad the counter‖nonce row of its two
// blocks, counters 2q and 2q+1. Quad q (registers Yq, Y4+q, Y8+q, Y12+q)
// makes blocks 2q and 2q+1 of out. The rows but the constants are kept
// in the frame for the final add. Four times per double round it also
// folds the next of the npair <= 40 pairs of whole Poly1305 blocks at
// msg into mac, whose r0, r1 (offsets 0, 8) it reads and h0, h1, h2
// (32, 40, 48) it reads and writes; with npair = 0 mac and msg are not
// touched. It reads the key's eight words (Key.k, at offset 0), the
// nonce's twelve bytes and the eight counters, and nothing else is read
// or written.
//
// Frame: 0 scratch for a parked row, 32 and 64 the key rows, 96-223 the
// four counter rows, 224 the double-round count, 232 the fold's (PAIR).
TEXT ·keystream8mac(SB), NOSPLIT, $312-56
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
	MOVQ npair+48(FP), DI
	TESTQ DI, DI
	JZ rounds
	MOVQ mac+32(FP), AX; MOVQ msg+40(FP), SI
	MOVQ 0(AX), R11; MOVQ 8(AX), R12; MOVQ 32(AX), R8; MOVQ 40(AX), R9; MOVQ 48(AX), R10
	POWERS(232)

rounds:
	ROUND4
	PAIR(232, slot0)
	SHUFFLE4($0x39, $0x4E, $0x93)
	PAIR(232, slot1)
	ROUND4
	PAIR(232, slot2)
	SHUFFLE4($0x93, $0x4E, $0x39)
	PAIR(232, slot3)
	DECQ 224(SP)
	JNZ rounds

	CMPQ npair+48(FP), $0
	JEQ sum
	MOVQ mac+32(FP), AX
	MOVQ R8, 32(AX); MOVQ R9, 40(AX); MOVQ R10, 48(AX)

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

// The sixteen-lane kernel keeps the state transposed: register Zw holds
// word w of all sixteen blocks, one block per 32-bit lane, so a quarter
// round is four instructions on four whole registers, every rotate one
// VPROLD, and a diagonal round the same quarter round on other registers.
#define QR16(A, B, C, D) \
	VPADDD B, A, A; VPXORD A, D, D; VPROLD $16, D, D; \
	VPADDD D, C, C; VPXORD C, B, B; VPROLD $12, B, B; \
	VPADDD B, A, A; VPXORD A, D, D; VPROLD $8, D, D; \
	VPADDD D, C, C; VPXORD C, B, B; VPROLD $7, B, B

// The write-out transposes words back into blocks. UNPK interleaves the
// dwords of words w and w+1 (block 4j and 4j+1 in L, 4j+2 and 4j+3 in
// H, within 128-bit lane j); UNPK2 then the qwords of w and w+2, which
// leaves words 4g…4g+3 of block 4j+k in lane j of the k-th output.
#define UNPK(A, B, L, H) VPUNPCKLDQ B, A, L; VPUNPCKHDQ B, A, H
#define UNPK2(L0, H0, L2, H2, U0, U1, U2, U3) \
	VPUNPCKLQDQ L2, L0, U0; VPUNPCKHQDQ L2, L0, U1; \
	VPUNPCKLQDQ H2, H0, U2; VPUNPCKHQDQ H2, H0, U3

// TRANS4 takes the four registers holding blocks 4j+k (words 0-3, 4-7,
// 8-11, 12-15 in A, B, C, D, lane j) to the four blocks themselves, by
// a 4×4 transpose of 128-bit lanes, and stores block 4j+k at its place
// in out (DI), off = 64k.
#define TRANS4(A, B, C, D, off) \
	VSHUFI32X4 $0x44, B, A, Z16; VSHUFI32X4 $0xEE, B, A, Z17; \
	VSHUFI32X4 $0x44, D, C, Z18; VSHUFI32X4 $0xEE, D, C, Z19; \
	VSHUFI32X4 $0x88, Z18, Z16, A; VSHUFI32X4 $0xDD, Z18, Z16, B; \
	VSHUFI32X4 $0x88, Z19, Z17, C; VSHUFI32X4 $0xDD, Z19, Z17, D; \
	VMOVDQU64 A, (off+0)(DI); VMOVDQU64 B, (off+256)(DI); \
	VMOVDQU64 C, (off+512)(DI); VMOVDQU64 D, (off+768)(DI)

// func keystream16mac(key *Key, nonce *[12]byte, ctrs *[16]uint32, out *[1024]byte, mac *MAC, msg *byte, npair int)
//
// keystream8mac's contract at sixteen blocks, on AVX-512F: block i of
// out is the ChaCha20 block of (key, nonce) at counter ctrs[i], and
// four times per double round the next of the npair <= 40 pairs of
// whole Poly1305 blocks at msg folds into mac. The initial state is
// Z16-Z31, each word broadcast to every lane but the counters, one per
// lane; the rounds run in Z0-Z15, so nothing spills.
//
// Frame: 0 the fold's (PAIR), 80 the double-round count.
TEXT ·keystream16mac(SB), NOSPLIT, $88-56
	MOVQ key+0(FP), AX
	MOVQ nonce+8(FP), BX
	MOVQ ctrs+16(FP), CX
	VPBROADCASTD sigma<>+0(SB), Z16; VPBROADCASTD sigma<>+4(SB), Z17; VPBROADCASTD sigma<>+8(SB), Z18; VPBROADCASTD sigma<>+12(SB), Z19
	VPBROADCASTD 0(AX), Z20; VPBROADCASTD 4(AX), Z21; VPBROADCASTD 8(AX), Z22; VPBROADCASTD 12(AX), Z23
	VPBROADCASTD 16(AX), Z24; VPBROADCASTD 20(AX), Z25; VPBROADCASTD 24(AX), Z26; VPBROADCASTD 28(AX), Z27
	VMOVDQU32 0(CX), Z28; VPBROADCASTD 0(BX), Z29; VPBROADCASTD 4(BX), Z30; VPBROADCASTD 8(BX), Z31
	VMOVDQA64 Z16, Z0; VMOVDQA64 Z17, Z1; VMOVDQA64 Z18, Z2; VMOVDQA64 Z19, Z3
	VMOVDQA64 Z20, Z4; VMOVDQA64 Z21, Z5; VMOVDQA64 Z22, Z6; VMOVDQA64 Z23, Z7
	VMOVDQA64 Z24, Z8; VMOVDQA64 Z25, Z9; VMOVDQA64 Z26, Z10; VMOVDQA64 Z27, Z11
	VMOVDQA64 Z28, Z12; VMOVDQA64 Z29, Z13; VMOVDQA64 Z30, Z14; VMOVDQA64 Z31, Z15

	MOVQ $10, 80(SP)
	MOVQ npair+48(FP), DI
	TESTQ DI, DI
	JZ rounds16
	MOVQ mac+32(FP), AX; MOVQ msg+40(FP), SI
	MOVQ 0(AX), R11; MOVQ 8(AX), R12; MOVQ 32(AX), R8; MOVQ 40(AX), R9; MOVQ 48(AX), R10
	POWERS(0)

rounds16:
	QR16(Z0, Z4, Z8, Z12); QR16(Z1, Z5, Z9, Z13)
	PAIR(0, fold0)
	QR16(Z2, Z6, Z10, Z14); QR16(Z3, Z7, Z11, Z15)
	PAIR(0, fold1)
	QR16(Z0, Z5, Z10, Z15); QR16(Z1, Z6, Z11, Z12)
	PAIR(0, fold2)
	QR16(Z2, Z7, Z8, Z13); QR16(Z3, Z4, Z9, Z14)
	PAIR(0, fold3)
	DECQ 80(SP)
	JNZ rounds16

	CMPQ npair+48(FP), $0
	JEQ sum16
	MOVQ mac+32(FP), AX
	MOVQ R8, 32(AX); MOVQ R9, 40(AX); MOVQ R10, 48(AX)

sum16:
	VPADDD Z16, Z0, Z0; VPADDD Z17, Z1, Z1; VPADDD Z18, Z2, Z2; VPADDD Z19, Z3, Z3
	VPADDD Z20, Z4, Z4; VPADDD Z21, Z5, Z5; VPADDD Z22, Z6, Z6; VPADDD Z23, Z7, Z7
	VPADDD Z24, Z8, Z8; VPADDD Z25, Z9, Z9; VPADDD Z26, Z10, Z10; VPADDD Z27, Z11, Z11
	VPADDD Z28, Z12, Z12; VPADDD Z29, Z13, Z13; VPADDD Z30, Z14, Z14; VPADDD Z31, Z15, Z15

	UNPK(Z0, Z1, Z16, Z17); UNPK(Z2, Z3, Z18, Z19)
	UNPK(Z4, Z5, Z20, Z21); UNPK(Z6, Z7, Z22, Z23)
	UNPK(Z8, Z9, Z24, Z25); UNPK(Z10, Z11, Z26, Z27)
	UNPK(Z12, Z13, Z28, Z29); UNPK(Z14, Z15, Z30, Z31)
	UNPK2(Z16, Z17, Z18, Z19, Z0, Z1, Z2, Z3)
	UNPK2(Z20, Z21, Z22, Z23, Z4, Z5, Z6, Z7)
	UNPK2(Z24, Z25, Z26, Z27, Z8, Z9, Z10, Z11)
	UNPK2(Z28, Z29, Z30, Z31, Z12, Z13, Z14, Z15)
	MOVQ out+24(FP), DI
	TRANS4(Z0, Z4, Z8, Z12, 0)
	TRANS4(Z1, Z5, Z9, Z13, 64)
	TRANS4(Z2, Z6, Z10, Z14, 128)
	TRANS4(Z3, Z7, Z11, Z15, 192)
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
