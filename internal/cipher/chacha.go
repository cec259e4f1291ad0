// Package cipher implements RFC 8439 ChaCha20 and Poly1305 with no
// dependencies, shaped for Integrated Layer Processing: the ChaCha20
// block function is addressable by 64-byte block counter, so — exactly
// like scramble.WordAt — any 8-byte-aligned fragment offset is its own
// cryptographic synchronization point and ADU fragments can be
// enciphered/deciphered out of order. XORKeyStreamMAC fuses the
// keystream generation, the layer-boundary copy, and the Poly1305
// accumulation into one loop over the payload, which internal/ilp's
// AEAD kernels are (see ilp.FusedEncryptCopyMAC).
//
// Every payload byte crosses that one loop (wide.go), which hands the
// payload to a keystream call sixteen blocks at a time. Everything is
// Go but one file: on amd64 the call is an assembly kernel
// (wide_amd64.s) — sixteen lanes with AVX-512F, eight per call with
// AVX2 — the only hand-coded loops in the tree, which XORs its whole
// blocks from the source straight into the destination and also folds
// every whole Poly1305 block it is handed into a MAC, two per step, on
// the integer ports while its rounds run on the vector ports. A kernel
// reads the key, the nonce and a row of counters, lays out its own
// initial state from them, and reads blocks Go cut from checked slices
// and the MAC's limbs, so partial blocks, every bounds check and every
// tag verdict stay in Go; a Chain carries the end of one sealed message
// into the call that seals the next. The
// counters are the caller's: the payload loop passes sixteen in a row,
// and Blocks any sixteen, so that the blocks a message needs one of
// each — a one-time MAC key, the head of a run that starts mid-block —
// come sixteen to a call as well. On every other architecture, on amd64
// without AVX2 and under -tags purego the same loop makes those blocks
// with Block and folds with MAC.Update; the CPU, not a caller, picks.
//
// The primitives here are the real RFC 8439 constructions (verified
// against the RFC test vectors in vectors_test.go); the repo-specific
// part is only how the transport assigns nonces and counters (see
// internal/core). Unlike package scramble this IS a real cipher, but
// the transport's key-management story (ExpandKey from a 64-bit
// benchmark seed) is not: treat the integration as a measured datapath,
// not a vetted secure channel.
package cipher

import (
	"encoding/binary"
	"math/bits"
)

const (
	// KeySize is the ChaCha20 (and derived Poly1305) key size in bytes.
	KeySize = 32
	// NonceSize is the RFC 8439 96-bit nonce size in bytes.
	NonceSize = 12
	// BlockSize is the ChaCha20 keystream block size in bytes.
	BlockSize = 64
	// TagSize is the Poly1305 authenticator size in bytes.
	TagSize = 16
)

// Key is an expanded ChaCha20 key: the eight little-endian 32-bit words
// of the 256-bit key, ready to drop into the block-function state. It
// is a value type so configs can embed it with no per-packet pointer
// chasing or allocation.
type Key struct {
	k [8]uint32
}

// NewKey expands a 32-byte key.
func NewKey(key *[KeySize]byte) Key {
	var k Key
	for i := range k.k {
		k.k[i] = binary.LittleEndian.Uint32(key[4*i:])
	}
	return k
}

// ExpandKey derives a 256-bit key from a 64-bit seed with a splitmix64
// stream. It exists so configs keyed by a uint64 (the legacy scramble
// convention) can opt into the AEAD suite without new plumbing; a seed
// has only 64 bits of entropy, so use NewKey with a real key when the
// key material matters.
func ExpandKey(seed uint64) Key {
	var k Key
	s := seed
	for i := 0; i < 4; i++ {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		k.k[2*i] = uint32(z)
		k.k[2*i+1] = uint32(z >> 32)
	}
	return k
}

// Block computes one ChaCha20 block (RFC 8439 §2.3): 20 rounds over the
// 4×4 word state [constants | key | counter nonce], plus the initial
// state, serialized little-endian into out. It is the seekable
// primitive everything else builds on: counter c yields keystream bytes
// [64c, 64c+64) of the (key, nonce) stream.
func Block(key *Key, nonce *[NonceSize]byte, counter uint32, out *[BlockSize]byte) {
	n0 := binary.LittleEndian.Uint32(nonce[0:])
	n1 := binary.LittleEndian.Uint32(nonce[4:])
	n2 := binary.LittleEndian.Uint32(nonce[8:])

	x0, x1, x2, x3 := uint32(0x61707865), uint32(0x3320646e), uint32(0x79622d32), uint32(0x6b206574)
	x4, x5, x6, x7 := key.k[0], key.k[1], key.k[2], key.k[3]
	x8, x9, x10, x11 := key.k[4], key.k[5], key.k[6], key.k[7]
	x12, x13, x14, x15 := counter, n0, n1, n2

	for i := 0; i < 10; i++ {
		x0, x4, x8, x12 = quarterRound(x0+x4, x4, x8, x12)
		x1, x5, x9, x13 = quarterRound(x1+x5, x5, x9, x13)
		x2, x6, x10, x14 = quarterRound(x2+x6, x6, x10, x14)
		x3, x7, x11, x15 = quarterRound(x3+x7, x7, x11, x15)
		x0, x5, x10, x15 = quarterRound(x0+x5, x5, x10, x15)
		x1, x6, x11, x12 = quarterRound(x1+x6, x6, x11, x12)
		x2, x7, x8, x13 = quarterRound(x2+x7, x7, x8, x13)
		x3, x4, x9, x14 = quarterRound(x3+x4, x4, x9, x14)
	}

	binary.LittleEndian.PutUint32(out[0:], x0+0x61707865)
	binary.LittleEndian.PutUint32(out[4:], x1+0x3320646e)
	binary.LittleEndian.PutUint32(out[8:], x2+0x79622d32)
	binary.LittleEndian.PutUint32(out[12:], x3+0x6b206574)
	binary.LittleEndian.PutUint32(out[16:], x4+key.k[0])
	binary.LittleEndian.PutUint32(out[20:], x5+key.k[1])
	binary.LittleEndian.PutUint32(out[24:], x6+key.k[2])
	binary.LittleEndian.PutUint32(out[28:], x7+key.k[3])
	binary.LittleEndian.PutUint32(out[32:], x8+key.k[4])
	binary.LittleEndian.PutUint32(out[36:], x9+key.k[5])
	binary.LittleEndian.PutUint32(out[40:], x10+key.k[6])
	binary.LittleEndian.PutUint32(out[44:], x11+key.k[7])
	binary.LittleEndian.PutUint32(out[48:], x12+counter)
	binary.LittleEndian.PutUint32(out[52:], x13+n0)
	binary.LittleEndian.PutUint32(out[56:], x14+n1)
	binary.LittleEndian.PutUint32(out[60:], x15+n2)
}

// quarterRound is RFC 8439 §2.1's quarter round on a, b, c, d, but for
// its first step, a += b, which the caller makes: an inlined call with
// no instruction of its own at the call site leaves a NOP in the loop.
// Block's column rounds run it down the columns, its diagonal rounds
// along the diagonals.
func quarterRound(a, b, c, d uint32) (uint32, uint32, uint32, uint32) {
	d = bits.RotateLeft32(d^a, 16)
	c += d
	b = bits.RotateLeft32(b^c, 12)
	a += b
	d = bits.RotateLeft32(d^a, 8)
	c += d
	b = bits.RotateLeft32(b^c, 7)
	return a, b, c, d
}

// XORKeyStream XORs src into dst with the payload keystream of (key,
// nonce) from byte offset off on: XORKeyStreamMAC with no MAC. off may
// be any byte offset; dst and src may alias. It processes
// min(len(dst), len(src)) bytes and returns the count. Encrypt and
// decrypt are the same operation.
func XORKeyStream(key *Key, nonce *[NonceSize]byte, off int, dst, src []byte) int {
	return XORKeyStreamMAC(key, nonce, off, dst, src, nil, nil, nil, false)
}

// PayloadCounter is the counter of the payload block that byte off of
// the stream falls in. The payload stream begins at block counter 1, so
// byte off is byte off%64 of block 1+off/64; counter 0 is RFC 8439
// §2.8's one-time MAC key. This is the one place that maps an offset to
// a counter, and internal/core lays its tag-key counter domains out
// above the range it reaches.
func PayloadCounter(off int) uint32 {
	return uint32(1 + off/BlockSize)
}

// XORKeyStreamMAC XORs src into dst with the payload keystream of (key,
// nonce) from byte offset off on and, unless mac is nil, absorbs the
// ciphertext into mac in the same pass: dst's bytes when seal, else
// src's, taken before the XOR so that dst may be src. Every offset is
// its own synchronization point, so the fragments of one message can be
// sealed and opened out of order. Sealing through a chain ch (nil
// otherwise), the end of the ciphertext may be left for ch to fold;
// Chain.Sum finishes the tag either way. A MAC'd run that starts
// mid-block (off%BlockSize != 0) takes its first, partial block from a
// block of its own, the head: head, if not nil, is that block — block
// PayloadCounter(off), made ahead of time, typically by Blocks beside
// other one-off blocks — and nil has it made here. It processes
// min(len(dst), len(src)) bytes and returns the count.
func XORKeyStreamMAC(key *Key, nonce *[NonceSize]byte, off int, dst, src []byte, mac *MAC, ch *Chain, head *[BlockSize]byte, seal bool) int {
	n := min(len(dst), len(src))
	xorWide(key, nonce, PayloadCounter(off), off%BlockSize, dst[:n], src[:n], mac, ch, head, seal)
	return n
}

// TagKey derives a Poly1305 one-time key: the first 32 bytes of the
// ChaCha20 block at the given counter (RFC 8439 §2.6 uses counter 0;
// the transport uses per-fragment counters in a disjoint range so each
// fragment gets an independent one-time key — see internal/core, which
// makes most of its keys eight at a time with Blocks instead).
func TagKey(key *Key, nonce *[NonceSize]byte, counter uint32, out *[KeySize]byte) {
	var blk [BlockSize]byte
	Block(key, nonce, counter, &blk)
	copy(out[:], blk[:KeySize])
}
