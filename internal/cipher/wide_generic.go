//go:build !amd64 || purego

package cipher

// No kernel on this build: keystream makes its blocks with Block and
// folds with MAC.Update.
func detect() int { return scalar }

func keystream16mac(*Key, *[NonceSize]byte, *[Lanes]uint32, *[wideSize]byte, *MAC, *byte, int) {
	panic("cipher: keystream16mac without a kernel")
}

func keystream8mac(*Key, *[NonceSize]byte, *[Lanes / 2]uint32, *[wideSize / 2]byte, *MAC, *byte, int) {
	panic("cipher: keystream8mac without a kernel")
}
