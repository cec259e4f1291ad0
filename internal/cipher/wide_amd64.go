//go:build amd64 && !purego

package cipher

// keystream16mac runs the sixteen ChaCha20 blocks of (key, nonce) at
// counters ctrs[i] + add (wide_amd64.s). It XORs the first nx of them
// from src into dst, 64 bytes each, and writes block nx to tail unless
// tail is nil; with nx = 0 and no tail it touches neither src nor dst.
// On the side it folds
// the nblk <= foldMax whole Poly1305 blocks at msg into mac: the pairs
// between its rounds, an odd last block after them. It builds the
// initial state from key, nonce and ctrs itself. It needs AVX-512F.
//
//go:noescape
func keystream16mac(key *Key, nonce *[NonceSize]byte, ctrs *[Lanes]uint32, add uint32, dst, src *byte, nx int, tail *[BlockSize]byte, mac *MAC, msg *byte, nblk int)

// keystream16ifma is keystream16mac with the fold on the vector unit:
// eight blocks per step, one step per double round, on AVX-512 IFMA's
// 52-bit multiply-adds instead of the integer ports. It needs AVX-512F,
// IFMA and VL.
//
//go:noescape
func keystream16ifma(key *Key, nonce *[NonceSize]byte, ctrs *[Lanes]uint32, add uint32, dst, src *byte, nx int, tail *[BlockSize]byte, mac *MAC, msg *byte, nblk int)

// keystream8mac is keystream16mac at eight blocks, on AVX2.
//
//go:noescape
func keystream8mac(key *Key, nonce *[NonceSize]byte, ctrs *[Lanes / 2]uint32, add uint32, dst, src *byte, nx int, tail *[BlockSize]byte, mac *MAC, msg *byte, nblk int)
