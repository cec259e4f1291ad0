//go:build amd64 && !purego

package cipher

// haveWide says keystream8mac may run: the CPU has AVX2 and the
// operating system saves the YMM registers. It is read once, here; only
// tests ever assign it, to drive both paths on one machine.
var haveWide = detectAVX2()

// keystream8mac runs the eight ChaCha20 blocks of (key, nonce) at
// counters ctrs[0], …, ctrs[7] (wide_amd64.s) into out, in lane order,
// and folds nblk <= foldMax whole Poly1305 blocks at msg into mac on the
// side. It builds the initial state from key, nonce and ctrs itself.
//
//go:noescape
func keystream8mac(key *Key, nonce *[NonceSize]byte, ctrs *[Lanes]uint32, out *[wideSize]byte, mac *MAC, msg *byte, nblk int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// detectAVX2 is the part of internal/cpu this package needs, which a
// package outside the standard library cannot import.
func detectAVX2() bool {
	const osxsave, avx, avx2, xmmYmm = 1 << 27, 1 << 28, 1 << 5, 0x6
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if eax, _ := xgetbv(); eax&xmmYmm != xmmYmm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
