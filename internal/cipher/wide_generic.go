//go:build !amd64 || purego

package cipher

// No wide kernel on this build: keystream, the one reader of haveWide,
// makes its blocks with Block and folds with MAC.Update.
const haveWide = false

func keystream8mac(*Key, *[NonceSize]byte, *[Lanes]uint32, *[wideSize]byte, *MAC, *byte, int) {
	panic("cipher: keystream8mac without a wide kernel")
}
