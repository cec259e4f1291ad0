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
// second's. XOR2 takes the quad's blocks b and b+1 to the payload: each block
// whose index is below CX, the count of whole blocks, is XORed with
// its 64 bytes of the source (SI) into the destination (DI); the first
// that is not goes to the tail instead, at l0 or l1.
#define XOR2(A, B, C, D, T, b, l0, l1) \
	CMPQ CX, $(b); JLS l0; \
	VPERM2I128 $0x20, B, A, T; VPXOR (64*b)(SI), T, T; VMOVDQU T, (64*b)(DI); \
	VPERM2I128 $0x20, D, C, T; VPXOR (64*b+32)(SI), T, T; VMOVDQU T, (64*b+32)(DI); \
	CMPQ CX, $(b+1); JLS l1; \
	VPERM2I128 $0x31, B, A, T; VPXOR (64*b+64)(SI), T, T; VMOVDQU T, (64*b+64)(DI); \
	VPERM2I128 $0x31, D, C, T; VPXOR (64*b+96)(SI), T, T; VMOVDQU T, (64*b+96)(DI)

// TAIL2 writes the quad's first (sel $0x20) or second ($0x31) block to
// the tail (R8), if there is one, and leaves for done.
#define TAIL2(A, B, C, D, T, sel, done) \
	TESTQ R8, R8; JZ done; \
	VPERM2I128 sel, B, A, T; VMOVDQU T, 0(R8); \
	VPERM2I128 sel, D, C, T; VMOVDQU T, 32(R8); \
	JMP done

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

// ONE folds the one block at SI: h = (h + m)·r, which is MAC.block
// step for step — the same columns t0-t3 (BX, CX, R13, R14) and the
// same reduction — so it leaves the limbs MAC.block would. It is how a
// call folds the odd last block of its message, after the pairs.
#define ONE \
	ADDQ 0(SI), R8; ADCQ 8(SI), R9; ADCQ $1, R10; \
	MOVQ R8, AX; MULQ R11; MOVQ AX, BX; MOVQ DX, CX; \
	MOVQ R9, AX; MULQ R11; ADDQ AX, CX; ADCQ $0, DX; MOVQ DX, R13; \
	MOVQ R8, AX; MULQ R12; MOVQ $0, R14; ADDQ AX, CX; ADCQ DX, R13; ADCQ $0, R14; \
	MOVQ R9, AX; MULQ R12; ADDQ AX, R13; ADCQ DX, R14; \
	MOVQ R10, AX; IMULQ R11, AX; ADDQ AX, R13; ADCQ $0, R14; \
	MOVQ R10, AX; IMULQ R12, AX; ADDQ AX, R14; \
	MOVQ BX, R8; MOVQ CX, R9; MOVQ R13, R10; ANDQ $3, R10; ANDQ $-4, R13; \
	ADDQ R13, R8; ADCQ R14, R9; ADCQ $0, R10; \
	SHRQ $2, R14, R13; SHRQ $2, R14; ADDQ R13, R8; ADCQ R14, R9; ADCQ $0, R10

// The ChaCha20 constants, "expand 32-byte k", as a row of two blocks.
DATA sigma<>+0x00(SB)/8, $0x3320646e61707865
DATA sigma<>+0x08(SB)/8, $0x6b20657479622d32
DATA sigma<>+0x10(SB)/8, $0x3320646e61707865
DATA sigma<>+0x18(SB)/8, $0x6b20657479622d32
GLOBL sigma<>(SB), RODATA|NOPTR, $32

// func keystream8mac(key *Key, nonce *[12]byte, ctrs *[8]uint32, add uint32, dst, src *byte, nx int, tail *[64]byte, mac *MAC, msg *byte, nblk int)
//
// Lane i makes the ChaCha20 block of (key, nonce) at counter
// ctrs[i] + add. The blocks of lanes 0 to nx-1 are XORed from src into
// dst, 64 bytes each, and lane nx's block is written to tail if tail is
// not nil: a run of whole blocks, and the keystream of the part block
// after it. With nx = 0 and no tail, src and dst are not touched. The
// kernel lays out the initial state itself, as rows of two blocks: the
// constants, key words 0-3, key words 4-7 — each the same in both
// halves — and per quad the counter‖nonce row of its two blocks, lanes
// 2q and 2q+1.
// Quad q (registers Yq, Y4+q, Y8+q, Y12+q) makes lanes 2q and 2q+1.
// The rows but the constants are kept in the frame for the final add.
// Four times per double round it also folds the next of the nblk/2 <=
// 40 pairs of whole Poly1305 blocks at msg into mac, and, if nblk is
// odd, the last block after the rounds (ONE), so that every block it is
// handed is folded; mac's r0, r1 (offsets 0, 8) are read and h0, h1, h2
// (32, 40, 48) read and written, and with nblk = 0 mac and msg are not
// touched. It reads the key's eight words (Key.k, at offset 0), the
// nonce's twelve bytes, the eight counters and nx blocks of src, writes
// nx blocks of dst and the tail, and nothing else.
//
// Frame: 0 scratch for a parked row, 32 and 64 the key rows, 96-223 the
// four counter rows, 224 the double-round count, 232 the fold's (PAIR).
TEXT ·keystream8mac(SB), NOSPLIT, $312-88
	// Counter rows: the nonce in words 1-3 of each half, blended with a
	// pair of counters zero-extended to qwords and spread so that one
	// lands in word 0 of each half.
	MOVQ nonce+8(FP), BX
	MOVQ ctrs+16(FP), CX
	VMOVQ 0(BX), X12
	VPINSRD $2, 8(BX), X12, X12
	VPSLLDQ $4, X12, X12
	VINSERTI128 $1, X12, Y12, Y12
	MOVL add+24(FP), AX
	VMOVD AX, X1
	VPBROADCASTD X1, Y1
	VPADDD 0(CX), Y1, Y1
	VPMOVZXDQ X1, Y0
	VEXTRACTI128 $1, Y1, X1
	VPMOVZXDQ X1, Y1
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
	MOVQ nblk+80(FP), DI
	TESTQ DI, DI
	JZ rounds
	MOVQ mac+64(FP), AX; MOVQ msg+72(FP), SI
	MOVQ 0(AX), R11; MOVQ 8(AX), R12; MOVQ 32(AX), R8; MOVQ 40(AX), R9; MOVQ 48(AX), R10
	SHRQ $1, DI
	JZ rounds
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

	MOVQ nblk+80(FP), AX
	TESTQ AX, AX
	JZ sum
	TESTQ $1, AX
	JZ limbs
	ONE

limbs:
	MOVQ mac+64(FP), AX
	MOVQ R8, 32(AX); MOVQ R9, 40(AX); MOVQ R10, 48(AX)

sum:
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

	MOVQ dst+32(FP), DI
	MOVQ src+40(FP), SI
	MOVQ nx+48(FP), CX
	MOVQ tail+56(FP), R8
	VMOVDQU Y15, 0(SP)
	XOR2(Y0, Y4, Y8, Y12, Y15, 0, tail0, tail1)
	XOR2(Y1, Y5, Y9, Y13, Y15, 2, tail2, tail3)
	XOR2(Y2, Y6, Y10, Y14, Y15, 4, tail4, tail5)
	VMOVDQU 0(SP), Y15
	XOR2(Y3, Y7, Y11, Y15, Y0, 6, tail6, tail7)
	JMP done

tail0: TAIL2(Y0, Y4, Y8, Y12, Y15, $0x20, done)
tail1: TAIL2(Y0, Y4, Y8, Y12, Y15, $0x31, done)
tail2: TAIL2(Y1, Y5, Y9, Y13, Y15, $0x20, done)
tail3: TAIL2(Y1, Y5, Y9, Y13, Y15, $0x31, done)
tail4: TAIL2(Y2, Y6, Y10, Y14, Y15, $0x20, done)
tail5: TAIL2(Y2, Y6, Y10, Y14, Y15, $0x31, done)
tail6: TAIL2(Y3, Y7, Y11, Y15, Y0, $0x20, done)
tail7: TAIL2(Y3, Y7, Y11, Y15, Y0, $0x31, done)

done:
	VZEROUPPER
	RET
// The sixteen-lane kernels keep the state transposed: register Zw holds
// word w of all sixteen blocks, one block per 32-bit lane, so a quarter
// round is four instructions on four whole registers, every rotate one
// VPROLD, and a diagonal round the same quarter round on other registers.
#define QR16(A, B, C, D) \
	VPADDD B, A, A; VPXORD A, D, D; VPROLD $16, D, D; \
	VPADDD D, C, C; VPXORD C, B, B; VPROLD $12, B, B; \
	VPADDD B, A, A; VPXORD A, D, D; VPROLD $8, D, D; \
	VPADDD D, C, C; VPXORD C, B, B; VPROLD $7, B, B

// A double round is four pairs of quarter rounds, two on columns and two
// on diagonals; each kernel runs its Poly1305 fold between them.
#define COLS01 QR16(Z0, Z4, Z8, Z12); QR16(Z1, Z5, Z9, Z13)
#define COLS23 QR16(Z2, Z6, Z10, Z14); QR16(Z3, Z7, Z11, Z15)
#define DIAG01 QR16(Z0, Z5, Z10, Z15); QR16(Z1, Z6, Z11, Z12)
#define DIAG23 QR16(Z2, Z7, Z8, Z13); QR16(Z3, Z4, Z9, Z14)

// INIT16 lays out the initial state in Z16-Z31 from the arguments, each
// word broadcast to every lane but the counters, one per lane, and
// START16 copies it to Z0-Z15, where the rounds run.
#define INIT16 \
	MOVQ key+0(FP), AX; MOVQ nonce+8(FP), BX; MOVQ ctrs+16(FP), CX; \
	VPBROADCASTD sigma<>+0(SB), Z16; VPBROADCASTD sigma<>+4(SB), Z17; VPBROADCASTD sigma<>+8(SB), Z18; VPBROADCASTD sigma<>+12(SB), Z19; \
	VPBROADCASTD 0(AX), Z20; VPBROADCASTD 4(AX), Z21; VPBROADCASTD 8(AX), Z22; VPBROADCASTD 12(AX), Z23; \
	VPBROADCASTD 16(AX), Z24; VPBROADCASTD 20(AX), Z25; VPBROADCASTD 24(AX), Z26; VPBROADCASTD 28(AX), Z27; \
	MOVL add+24(FP), DX; VPBROADCASTD DX, Z28; VPADDD 0(CX), Z28, Z28; \
	VPBROADCASTD 0(BX), Z29; VPBROADCASTD 4(BX), Z30; VPBROADCASTD 8(BX), Z31

#define START16 \
	VMOVDQA64 Z16, Z0; VMOVDQA64 Z17, Z1; VMOVDQA64 Z18, Z2; VMOVDQA64 Z19, Z3; \
	VMOVDQA64 Z20, Z4; VMOVDQA64 Z21, Z5; VMOVDQA64 Z22, Z6; VMOVDQA64 Z23, Z7; \
	VMOVDQA64 Z24, Z8; VMOVDQA64 Z25, Z9; VMOVDQA64 Z26, Z10; VMOVDQA64 Z27, Z11; \
	VMOVDQA64 Z28, Z12; VMOVDQA64 Z29, Z13; VMOVDQA64 Z30, Z14; VMOVDQA64 Z31, Z15

// The XOR transposes words back into blocks first. UNPK interleaves the
// dwords of words w and w+1 (block 4j and 4j+1 in L, 4j+2 and 4j+3 in
// H, within 128-bit lane j); UNPK2 then the qwords of w and w+2, which
// leaves words 4g…4g+3 of block 4j+k in lane j of the k-th output.
#define UNPK(A, B, L, H) VPUNPCKLDQ B, A, L; VPUNPCKHDQ B, A, H
#define UNPK2(L0, H0, L2, H2, U0, U1, U2, U3) \
	VPUNPCKLQDQ L2, L0, U0; VPUNPCKHQDQ L2, L0, U1; \
	VPUNPCKLQDQ H2, H0, U2; VPUNPCKHQDQ H2, H0, U3

// TRANS4 takes the four registers holding blocks 4j+k (words 0-3, 4-7,
// 8-11, 12-15 in A, B, C, D, lane j) to the four blocks themselves, by
// a 4×4 transpose of 128-bit lanes: after it A holds block k, B block
// 4+k, C block 8+k and D block 12+k, so that once all four have run,
// register Zb holds block b.
#define TRANS4(A, B, C, D) \
	VSHUFI32X4 $0x44, B, A, Z16; VSHUFI32X4 $0xEE, B, A, Z17; \
	VSHUFI32X4 $0x44, D, C, Z18; VSHUFI32X4 $0xEE, D, C, Z19; \
	VSHUFI32X4 $0x88, Z18, Z16, A; VSHUFI32X4 $0xDD, Z18, Z16, B; \
	VSHUFI32X4 $0x88, Z19, Z17, C; VSHUFI32X4 $0xDD, Z19, Z17, D

// XOR16 takes block b, in Z, to the payload: if its index is below CX,
// the count of whole blocks, it is XORed with its 64 bytes of the
// source (SI) into the destination (DI); else it goes to the tail at l.
#define XOR16(Z, b, l) \
	CMPQ CX, $(b); JLS l; \
	VPXORD (64*b)(SI), Z, Z; VMOVDQU64 Z, (64*b)(DI)

// TAIL16 writes block Z to the tail (R8), if there is one, and leaves.
#define TAIL16(Z) \
	TESTQ R8, R8; JZ done16; \
	VMOVDQU64 Z, 0(R8); \
	JMP done16

// FINISH16 ends a sixteen-lane call: it adds the initial state in
// Z16-Z31 to the rounds' output, turns words back into blocks, XORs
// lanes 0 to nx-1 from src into dst, writes lane nx to the tail, if
// there is one, and returns.
#define FINISH16 \
	VPADDD Z16, Z0, Z0; VPADDD Z17, Z1, Z1; VPADDD Z18, Z2, Z2; VPADDD Z19, Z3, Z3; \
	VPADDD Z20, Z4, Z4; VPADDD Z21, Z5, Z5; VPADDD Z22, Z6, Z6; VPADDD Z23, Z7, Z7; \
	VPADDD Z24, Z8, Z8; VPADDD Z25, Z9, Z9; VPADDD Z26, Z10, Z10; VPADDD Z27, Z11, Z11; \
	VPADDD Z28, Z12, Z12; VPADDD Z29, Z13, Z13; VPADDD Z30, Z14, Z14; VPADDD Z31, Z15, Z15; \
	UNPK(Z0, Z1, Z16, Z17); UNPK(Z2, Z3, Z18, Z19); \
	UNPK(Z4, Z5, Z20, Z21); UNPK(Z6, Z7, Z22, Z23); \
	UNPK(Z8, Z9, Z24, Z25); UNPK(Z10, Z11, Z26, Z27); \
	UNPK(Z12, Z13, Z28, Z29); UNPK(Z14, Z15, Z30, Z31); \
	UNPK2(Z16, Z17, Z18, Z19, Z0, Z1, Z2, Z3); \
	UNPK2(Z20, Z21, Z22, Z23, Z4, Z5, Z6, Z7); \
	UNPK2(Z24, Z25, Z26, Z27, Z8, Z9, Z10, Z11); \
	UNPK2(Z28, Z29, Z30, Z31, Z12, Z13, Z14, Z15); \
	TRANS4(Z0, Z4, Z8, Z12); \
	TRANS4(Z1, Z5, Z9, Z13); \
	TRANS4(Z2, Z6, Z10, Z14); \
	TRANS4(Z3, Z7, Z11, Z15); \
	MOVQ dst+32(FP), DI; \
	MOVQ src+40(FP), SI; \
	MOVQ nx+48(FP), CX; \
	MOVQ tail+56(FP), R8; \
	XOR16(Z0, 0, tail16_0); XOR16(Z1, 1, tail16_1); XOR16(Z2, 2, tail16_2); XOR16(Z3, 3, tail16_3); \
	XOR16(Z4, 4, tail16_4); XOR16(Z5, 5, tail16_5); XOR16(Z6, 6, tail16_6); XOR16(Z7, 7, tail16_7); \
	XOR16(Z8, 8, tail16_8); XOR16(Z9, 9, tail16_9); XOR16(Z10, 10, tail16_10); XOR16(Z11, 11, tail16_11); \
	XOR16(Z12, 12, tail16_12); XOR16(Z13, 13, tail16_13); XOR16(Z14, 14, tail16_14); XOR16(Z15, 15, tail16_15); \
	JMP done16; \
tail16_0: TAIL16(Z0); \
tail16_1: TAIL16(Z1); \
tail16_2: TAIL16(Z2); \
tail16_3: TAIL16(Z3); \
tail16_4: TAIL16(Z4); \
tail16_5: TAIL16(Z5); \
tail16_6: TAIL16(Z6); \
tail16_7: TAIL16(Z7); \
tail16_8: TAIL16(Z8); \
tail16_9: TAIL16(Z9); \
tail16_10: TAIL16(Z10); \
tail16_11: TAIL16(Z11); \
tail16_12: TAIL16(Z12); \
tail16_13: TAIL16(Z13); \
tail16_14: TAIL16(Z14); \
tail16_15: TAIL16(Z15); \
done16: \
	VZEROUPPER; \
	RET

// func keystream16mac(key *Key, nonce *[12]byte, ctrs *[16]uint32, add uint32, dst, src *byte, nx int, tail *[64]byte, mac *MAC, msg *byte, nblk int)
//
// keystream8mac's contract at sixteen lanes, on AVX-512F: lane i makes
// the ChaCha20 block of (key, nonce) at counter ctrs[i] + add; lanes 0
// to nx-1 are XORed from src into dst and lane nx goes to tail if tail
// is not nil; and the nblk blocks at
// msg fold into mac, the pairs four times per double round and an odd
// last block after the rounds. The initial state is Z16-Z31, each word
// broadcast to every lane but the counters, one per lane; the rounds
// run in Z0-Z15, so nothing spills.
//
// Frame: 0 the fold's (PAIR), 80 the double-round count.
TEXT ·keystream16mac(SB), NOSPLIT, $88-88
	INIT16
	START16

	MOVQ $10, 80(SP)
	MOVQ nblk+80(FP), DI
	TESTQ DI, DI
	JZ rounds16
	MOVQ mac+64(FP), AX; MOVQ msg+72(FP), SI
	MOVQ 0(AX), R11; MOVQ 8(AX), R12; MOVQ 32(AX), R8; MOVQ 40(AX), R9; MOVQ 48(AX), R10
	SHRQ $1, DI
	JZ rounds16
	POWERS(0)

rounds16:
	COLS01
	PAIR(0, fold0)
	COLS23
	PAIR(0, fold1)
	DIAG01
	PAIR(0, fold2)
	DIAG23
	PAIR(0, fold3)
	DECQ 80(SP)
	JNZ rounds16

	MOVQ nblk+80(FP), AX
	TESTQ AX, AX
	JZ sum16
	TESTQ $1, AX
	JZ limbs16
	ONE

limbs16:
	MOVQ mac+64(FP), AX
	MOVQ R8, 32(AX); MOVQ R9, 40(AX); MOVQ R10, 48(AX)

sum16:
	FINISH16

// Poly1305 on the vector unit, with AVX-512 IFMA's 52-bit multiply-adds.
// Over n blocks it is h·r^n + Σ m_i·r^(n−i), and eight 64-bit lanes
// share it out: a stride is eight blocks, one per lane, and each lane
// accumulates every eighth block in radix 2^44, three limbs of 44, 44
// and 42 bits (Z16, Z17, Z18), each kept below 2^52. A stride multiplies
// every lane by r^8 before the next stride's blocks join it; the last
// multiplies the lane of its block j by r^(8−j) instead, so that the
// lanes, summed, are the polynomial. When n is not a multiple of eight
// the first stride is the short one: its blocks take its last lanes,
// the empty lanes before them are zero and get no 2^128 bit, and the
// caller's h joins the lane of the first block. Lane 2k+t of a stride
// holds its block k+4t, the order VPUNPCKLQDQ leaves eight blocks in,
// and the tables below follow it.
DATA mask44<>+0(SB)/8, $0xFFFFFFFFFFF
GLOBL mask44<>(SB), RODATA|NOPTR, $8
DATA mask42<>+0(SB)/8, $0x3FFFFFFFFFF
GLOBL mask42<>(SB), RODATA|NOPTR, $8

// Multipliers for VPMADD52LUQ: 2^8 moves a column's hi 52 bits to the
// next limb, 5 and 5·2^10 fold the top limb's overflow and hi bits past
// 2^130 into the bottom one, and 20 makes S.
DATA times256<>+0(SB)/8, $256
GLOBL times256<>(SB), RODATA|NOPTR, $8
DATA times5<>+0(SB)/8, $5
GLOBL times5<>(SB), RODATA|NOPTR, $8
DATA times5120<>+0(SB)/8, $5120
GLOBL times5120<>(SB), RODATA|NOPTR, $8
DATA times20<>+0(SB)/8, $20
GLOBL times20<>(SB), RODATA|NOPTR, $8

// The 2^128 bit, in a block's top limb.
DATA pad<>+0(SB)/8, $0x10000000000
GLOBL pad<>(SB), RODATA|NOPTR, $8

// The first stride's lane masks, a byte for each count q of empty lanes:
// the lanes that hold a block (0-7), and the lane of its first (8-15).
DATA first<>+0(SB)/8, $0x80A0A8AAEAFAFEFF
DATA first<>+8(SB)/8, $0x8020080240100401
GLOBL first<>(SB), RODATA|NOPTR, $16

// The last stride's powers, r^(8−j) for the lane of block j, as the
// bytes 3, 11, 2, 10, 1, 9, 0, 8: VPERMI2Q's picks from r^5…r^8 (0-3)
// and r…r^4 (8-11).
DATA last<>+0(SB)/8, $0x080009010A020B03
GLOBL last<>(SB), RODATA|NOPTR, $8

// VMUL sets H (Z16-Z18) to A·R mod 2^130 - 5 plus what the lo columns
// hold, A given as its limbs A0, A1, A2 and R as R0, R1, R2 and S1 =
// 20·R1, S2 = 20·R2 (2^132 = 20 mod p); A may be H. The nine products go
// into the columns, lo and hi 52 bits apart (Z24-Z29); VCARRY then adds
// each hi into the next limb, times 2^8, carries each limb's bits past
// 44 (42 for the top one) up, and folds the top limb's carry and hi
// bits, which are past 2^130, back into the bottom one times 5. That
// leaves limbs of at most 44, 45 and 42 bits, and every product and sum
// on the way below 2^52 where a multiply-add takes it and below 2^64
// where an add does. The lo columns start empty (VZERO) or with the
// next stride's blocks (VBLOCKS), which so join H for the next product.
#define VZERO VPXORQ Z24, Z24, Z24; VPXORQ Z26, Z26, Z26; VPXORQ Z28, Z28, Z28

#define VMUL(A0, A1, A2, R0, R1, R2, S1, S2) \
	VPXORQ Z25, Z25, Z25; VPXORQ Z27, Z27, Z27; VPXORQ Z29, Z29, Z29; \
	VPMADD52LUQ R0, A0, Z24; VPMADD52HUQ R0, A0, Z25; \
	VPMADD52LUQ R1, A0, Z26; VPMADD52HUQ R1, A0, Z27; \
	VPMADD52LUQ R2, A0, Z28; VPMADD52HUQ R2, A0, Z29; \
	VPMADD52LUQ S2, A1, Z24; VPMADD52HUQ S2, A1, Z25; \
	VPMADD52LUQ R0, A1, Z26; VPMADD52HUQ R0, A1, Z27; \
	VPMADD52LUQ R1, A1, Z28; VPMADD52HUQ R1, A1, Z29; \
	VPMADD52LUQ S1, A2, Z24; VPMADD52HUQ S1, A2, Z25; \
	VPMADD52LUQ S2, A2, Z26; VPMADD52HUQ S2, A2, Z27; \
	VPMADD52LUQ R0, A2, Z28; VPMADD52HUQ R0, A2, Z29; \
	VCARRY

#define VCARRY \
	VPMADD52LUQ.BCST times256<>(SB), Z25, Z26; VPMADD52LUQ.BCST times256<>(SB), Z27, Z28; \
	VPANDQ.BCST mask44<>(SB), Z24, Z16; VPMADD52LUQ.BCST times5120<>(SB), Z29, Z16; \
	VPSRLQ $44, Z24, Z30; VPADDQ Z30, Z26, Z26; \
	VPSRLQ $44, Z26, Z30; VPANDQ.BCST mask44<>(SB), Z26, Z17; VPADDQ Z30, Z28, Z28; \
	VPSRLQ $42, Z28, Z30; VPANDQ.BCST mask42<>(SB), Z28, Z18; VPMADD52LUQ.BCST times5<>(SB), Z30, Z16; \
	VPSRLQ $44, Z16, Z30; VPANDQ.BCST mask44<>(SB), Z16, Z16; VPADDQ Z30, Z17, Z17

// VBLOCKS splits a stride's blocks into limbs in the lo columns: the
// first four in Z30, the last four in B, each with its 2^128 bit where
// K says.
#define VBLOCKS(B, K) \
	VPUNPCKHQDQ B, Z30, Z31; VPUNPCKLQDQ B, Z30, Z30; \
	VPANDQ.BCST mask44<>(SB), Z30, Z24; \
	VPSRLQ $44, Z30, Z30; VPSLLQ $20, Z31, Z26; VPTERNLOGQ.BCST $0xA8, mask44<>(SB), Z30, Z26; \
	VPSRLQ $24, Z31, Z28; VPORQ.BCST pad<>(SB), Z28, K, Z28

// TIMES20 sets S to 20·R, a multiplier's S1 or S2.
#define TIMES20(R, S) VPXORQ S, S, S; VPMADD52LUQ.BCST times20<>(SB), R, S

// HSUM adds the eight lanes of Z (Y its low half) into the register q.
#define HSUM(Z, Y, q) \
	VEXTRACTI64X4 $1, Z, Y30; VPADDQ Y30, Y, Y30; \
	VEXTRACTI32X4 $1, Y30, X31; VPADDQ X31, X30, X30; \
	VPSHUFD $0x4E, X30, X31; VPADDQ X31, X30, X30; VMOVQ X30, q

// func keystream16ifma(key *Key, nonce *[12]byte, ctrs *[16]uint32, add uint32, dst, src *byte, nx int, tail *[64]byte, mac *MAC, msg *byte, nblk int)
//
// keystream16mac's contract and rounds, with the fold on the vector unit
// (AVX-512 IFMA): the nblk blocks at msg go eight to a stride, one
// stride per double round in Z16-Z31, which the rounds leave free by
// laying out the initial state again at the end. Before the rounds it
// makes r^2, then r^3, r^4, then r^5…r^8, keeps r^8 in Z19-Z23 and the
// last stride's powers in the frame, and loads the first stride with h
// in its first block's lane; after them it sums the lanes and writes h
// back as three 64-bit limbs with h2 at most 4. With nblk = 0 mac and
// msg are not touched.
//
// Frame: 0, 64, 128, 192, 256 the last stride's R0, R1, R2, S1, S2;
// 320-447 the first stride's blocks.
TEXT ·keystream16ifma(SB), NOSPLIT, $448-88
	INIT16
	START16

	MOVQ $10, R8
	MOVQ nblk+80(FP), DI
	TESTQ DI, DI
	JZ roundsV

	// The first stride: q = -nblk mod 8 empty lanes, then 8 - q blocks,
	// copied to the stage at 320 so that no load reaches past msg; the
	// strides after it start at SI, whole. K3 has the lanes with a
	// block, K6 the first block's, which h joins.
	MOVQ DI, CX; NEGQ CX; ANDQ $7, CX
	ADDQ $7, DI; SHRQ $3, DI
	VPXORQ Z30, Z30, Z30; VMOVDQU64 Z30, 320(SP); VMOVDQU64 Z30, 384(SP)
	MOVQ msg+72(FP), SI
	MOVQ CX, BX; SHLQ $4, BX; LEAQ 320(SP)(BX*1), DX
	MOVQ $8, BX; SUBQ CX, BX
stageV:
	VMOVDQU64 0(SI), X30; VMOVDQU64 X30, 0(DX)
	ADDQ $16, SI; ADDQ $16, DX
	DECQ BX
	JNZ stageV
	LEAQ first<>(SB), BX
	MOVBLZX (BX)(CX*1), DX; KMOVW DX, K3
	MOVBLZX 8(BX)(CX*1), DX; KMOVW DX, K6

	// r in radix 2^44 (R9, R10, R11), in every lane of Z19-Z21, squared.
	MOVQ mac+64(FP), AX
	MOVQ $0xFFFFFFFFFFF, R14
	MOVQ 0(AX), R9; MOVQ 8(AX), R11
	MOVQ R9, R10; SHRQ $44, R11, R10; ANDQ R14, R10; ANDQ R14, R9; SHRQ $24, R11
	VPBROADCASTQ R9, Z19; VPBROADCASTQ R10, Z20; VPBROADCASTQ R11, Z21
	TIMES20(Z20, Z22); TIMES20(Z21, Z23)
	VZERO
	VMUL(Z19, Z20, Z21, Z19, Z20, Z21, Z22, Z23)
	// r, r^2 in alternate lanes, times r^2.
	MOVL $0xAA, BX; KMOVW BX, K2
	VPBLENDMQ Z16, Z19, K2, Z19; VPBLENDMQ Z17, Z20, K2, Z20; VPBLENDMQ Z18, Z21, K2, Z21
	TIMES20(Z17, Z22); TIMES20(Z18, Z23)
	VZERO
	VMUL(Z19, Z20, Z21, Z16, Z17, Z18, Z22, Z23)
	// r…r^4 in each half, kept, times r^4.
	MOVL $0xCC, BX; KMOVW BX, K4
	VPBLENDMQ Z16, Z19, K4, Z19; VPBLENDMQ Z17, Z20, K4, Z20; VPBLENDMQ Z18, Z21, K4, Z21
	VMOVDQU64 Z19, 0(SP); VMOVDQU64 Z20, 64(SP); VMOVDQU64 Z21, 128(SP)
	VPERMQ $0x55, Z16, Z16; VPERMQ $0x55, Z17, Z17; VPERMQ $0x55, Z18, Z18
	TIMES20(Z17, Z22); TIMES20(Z18, Z23)
	VZERO
	VMUL(Z19, Z20, Z21, Z16, Z17, Z18, Z22, Z23)
	// The last stride's powers to the frame, r^8 to Z19-Z23.
	VPMOVZXBQ last<>(SB), Z24; VMOVDQA64 Z24, Z25; VMOVDQA64 Z24, Z26
	VPERMI2Q 0(SP), Z16, Z24; VPERMI2Q 64(SP), Z17, Z25; VPERMI2Q 128(SP), Z18, Z26
	TIMES20(Z25, Z27); TIMES20(Z26, Z28)
	VMOVDQU64 Z24, 0(SP); VMOVDQU64 Z25, 64(SP); VMOVDQU64 Z26, 128(SP)
	VMOVDQU64 Z27, 192(SP); VMOVDQU64 Z28, 256(SP)
	VPERMQ $0xFF, Z16, Z19; VPERMQ $0xFF, Z17, Z20; VPERMQ $0xFF, Z18, Z21
	TIMES20(Z20, Z22); TIMES20(Z21, Z23)

	// h in radix 2^44, in the lane of the first block.
	MOVQ 32(AX), BX; MOVQ 40(AX), CX; MOVQ 48(AX), DX
	MOVQ BX, R12; ANDQ R14, R12; SHRQ $44, CX, BX; ANDQ R14, BX; SHRQ $24, DX, CX
	VPBROADCASTQ.Z R12, K6, Z16; VPBROADCASTQ.Z BX, K6, Z17; VPBROADCASTQ.Z CX, K6, Z18
	VMOVDQU64 320(SP), Z30; VMOVDQU64 384(SP), Z24
	VBLOCKS(Z24, K3)
	VPADDQ Z24, Z16, Z16; VPADDQ Z26, Z17, Z17; VPADDQ Z28, Z18, Z18
	KXNORW K1, K1, K1

roundsV:
	COLS01
	// One stride: times r^8 plus the next eight blocks, or the last.
	CMPQ DI, $1
	JB foldedV
	JEQ lastV
	VMOVDQU64 0(SI), Z30
	VBLOCKS(64(SI), K1)
	VMUL(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)
	ADDQ $128, SI
	DECQ DI
	JMP foldedV
lastV:
	VZERO
	VMUL(Z16, Z17, Z18, 0(SP), 64(SP), 128(SP), 192(SP), 256(SP))
	DECQ DI
foldedV:
	COLS23
	DIAG01
	DIAG23
	DECQ R8
	JNZ roundsV

	MOVQ nblk+80(FP), AX
	TESTQ AX, AX
	JZ finishV
	// h = AX + BX·2^44 + CX·2^88, each sum below 2^48, as 64-bit limbs;
	// then its bits from 2^130 up fold back in times 5, which leaves h2
	// at most 4.
	HSUM(Z16, Y16, AX); HSUM(Z17, Y17, BX); HSUM(Z18, Y18, CX)
	MOVQ BX, DX; SHLQ $44, DX; SHRQ $20, BX
	MOVQ CX, R9; SHLQ $24, R9; SHRQ $40, CX
	ADDQ DX, AX; ADCQ R9, BX; ADCQ $0, CX
	MOVQ CX, DX; ANDQ $3, CX; SHRQ $2, DX; LEAQ (DX)(DX*4), DX
	ADDQ DX, AX; ADCQ $0, BX; ADCQ $0, CX
	MOVQ mac+64(FP), DX
	MOVQ AX, 32(DX); MOVQ BX, 40(DX); MOVQ CX, 48(DX)

	INIT16

finishV:
	FINISH16
