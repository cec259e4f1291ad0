//go:build amd64 && !purego

package checksum

// The AVX2 forms of the copy and checksum loop (sum_amd64.s). Each
// takes n, a multiple of 8 below 2^35; the sum forms return the sum of
// the bytes as little-endian 64-bit words mod 2^64-1, zero only if
// every byte was.

//go:noescape
func sumAVX2(src *byte, n int) uint64

//go:noescape
func copySumAVX2(dst, src *byte, n int) uint64

//go:noescape
func copyAVX2(dst, src *byte, n int)
