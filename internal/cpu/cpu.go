// Package cpu reads, once at start, which vector extensions this CPU
// has and the operating system saves the registers of (XCR0): the part
// of the standard library's internal/cpu the tree needs, which a package
// outside it cannot import. internal/cipher picks its keystream kernel
// by it and internal/checksum its copy and checksum loop. Other
// architectures and -tags purego report none.
package cpu

var (
	AVX2       bool // AVX2, YMM state saved
	AVX512F    bool // AVX-512F, ZMM and mask state saved
	AVX512IFMA bool // AVX512F with IFMA and VL
)

func init() { AVX2, AVX512F, AVX512IFMA = detect() }
