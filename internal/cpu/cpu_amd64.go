//go:build amd64 && !purego

package cpu

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// detect reads CPUID and XCR0: OSXSAVE and AVX (CPUID.1.ECX bits 27,
// 28), then AVX2 (CPUID.7.EBX bit 5) with XCR0 bits 1 and 2, AVX512F
// (bit 16) with bits 1, 2 and 5-7, IFMA and VL (bits 21, 31).
func detect() (avx2, avx512f, avx512ifma bool) {
	const osxsave, avx, avx2Bit, avx512Bit = 1 << 27, 1 << 28, 1 << 5, 1 << 16
	const ifma, vl = 1 << 21, 1 << 31
	const ymm, zmm = 0x6, 0xE6
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false, false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false, false, false
	}
	xcr0, _ := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	avx2 = ebx&avx2Bit != 0 && xcr0&ymm == ymm
	avx512f = ebx&avx512Bit != 0 && xcr0&zmm == zmm
	avx512ifma = avx512f && ebx&(ifma|vl) == ifma|vl
	return avx2, avx512f, avx512ifma
}
