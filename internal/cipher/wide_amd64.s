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

// func keystream8(in *[7][8]uint32, out *[512]byte)
//
// in is the initial state as rows, each doubled for the two blocks of a
// quad: constants, key words 0-3, key words 4-7, then one counter‖nonce
// row per quad. Quad q (registers Yq, Y4+q, Y8+q, Y12+q) makes blocks
// 2q and 2q+1 of out. Nothing but in and out is read or written.
TEXT ·keystream8(SB), NOSPLIT, $32-16
	MOVQ in+0(FP), SI
	MOVQ out+8(FP), DI
	VMOVDQU 0(SI), Y0
	VMOVDQU 32(SI), Y4
	VMOVDQU 64(SI), Y8
	VMOVDQA Y0, Y1
	VMOVDQA Y0, Y2
	VMOVDQA Y0, Y3
	VMOVDQA Y4, Y5
	VMOVDQA Y4, Y6
	VMOVDQA Y4, Y7
	VMOVDQA Y8, Y9
	VMOVDQA Y8, Y10
	VMOVDQA Y8, Y11
	VMOVDQU 96(SI), Y12
	VMOVDQU 128(SI), Y13
	VMOVDQU 160(SI), Y14
	VMOVDQU 192(SI), Y15
	MOVQ $10, CX

rounds:
	ROUND4
	SHUFFLE4($0x39, $0x4E, $0x93)
	ROUND4
	SHUFFLE4($0x93, $0x4E, $0x39)
	DECQ CX
	JNZ rounds

	VPADDD 0(SI), Y0, Y0
	VPADDD 0(SI), Y1, Y1
	VPADDD 0(SI), Y2, Y2
	VPADDD 0(SI), Y3, Y3
	VPADDD 32(SI), Y4, Y4
	VPADDD 32(SI), Y5, Y5
	VPADDD 32(SI), Y6, Y6
	VPADDD 32(SI), Y7, Y7
	VPADDD 64(SI), Y8, Y8
	VPADDD 64(SI), Y9, Y9
	VPADDD 64(SI), Y10, Y10
	VPADDD 64(SI), Y11, Y11
	VPADDD 96(SI), Y12, Y12
	VPADDD 128(SI), Y13, Y13
	VPADDD 160(SI), Y14, Y14
	VPADDD 192(SI), Y15, Y15

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
