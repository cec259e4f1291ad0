//go:build !amd64 || purego

package cipher

// No wide kernel on this build: keystream is Block in a loop, and every
// caller that asks haveWide first takes the pure-Go path it always had.
const haveWide = false

func keystream8mac(*[7][8]uint32, *[wideSize]byte, *MAC, *byte, int) {
	panic("cipher: keystream8mac without a wide kernel")
}
