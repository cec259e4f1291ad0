//go:build !amd64 || purego

package checksum

// No vector loop on this build: internal/cpu reports no AVX2, so vector
// is false and these are never called.
func sumAVX2(*byte, int) uint64            { panic("checksum: no vector loop") }
func copySumAVX2(*byte, *byte, int) uint64 { panic("checksum: no vector loop") }
func copyAVX2(*byte, *byte, int)           { panic("checksum: no vector loop") }
