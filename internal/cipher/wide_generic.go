//go:build !amd64 || purego

package cipher

// No kernel on this build: internal/cpu reports no extension, so
// detect picks scalar, and keystream makes its blocks with Block and
// folds with MAC.Update. These are never called.
func keystream16mac(*Key, *[NonceSize]byte, *[Lanes]uint32, uint32, *byte, *byte, int, *[BlockSize]byte, *MAC, *byte, int) {
	panic("cipher: no kernel")
}
func keystream16ifma(*Key, *[NonceSize]byte, *[Lanes]uint32, uint32, *byte, *byte, int, *[BlockSize]byte, *MAC, *byte, int) {
	panic("cipher: no kernel")
}
func keystream8mac(*Key, *[NonceSize]byte, *[Lanes / 2]uint32, uint32, *byte, *byte, int, *[BlockSize]byte, *MAC, *byte, int) {
	panic("cipher: no kernel")
}
