//go:build amd64 && !purego

package cipher

// keystream16mac runs the sixteen ChaCha20 blocks of (key, nonce) at
// counters ctrs[0], …, ctrs[15] (wide_amd64.s) into out, in lane order,
// and folds npair <= 40 pairs of whole Poly1305 blocks at msg into mac
// on the side. It builds the initial state from key, nonce and ctrs
// itself. It needs AVX-512F.
//
//go:noescape
func keystream16mac(key *Key, nonce *[NonceSize]byte, ctrs *[Lanes]uint32, out *[wideSize]byte, mac *MAC, msg *byte, npair int)

// keystream8mac is keystream16mac at eight blocks, on AVX2.
//
//go:noescape
func keystream8mac(key *Key, nonce *[NonceSize]byte, ctrs *[Lanes / 2]uint32, out *[wideSize / 2]byte, mac *MAC, msg *byte, npair int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// detect is the part of internal/cpu this package needs, which a
// package outside the standard library cannot import: AVX-512F with the
// operating system saving the ZMM registers and mask registers (XCR0
// bits 1, 2 and 5-7), else AVX2 with the YMM registers saved (bits 1
// and 2), else neither.
func detect() int {
	const osxsave, avx, avx2Bit, avx512f = 1 << 27, 1 << 28, 1 << 5, 1 << 16
	const ymm, zmm = 0x6, 0xE6
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return scalar
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return scalar
	}
	xcr0, _ := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	switch {
	case ebx&avx512f != 0 && xcr0&zmm == zmm:
		return avx512
	case ebx&avx2Bit != 0 && xcr0&ymm == ymm:
		return avx2
	}
	return scalar
}
