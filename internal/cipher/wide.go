package cipher

import (
	"encoding/binary"
)

// The wide path. ChaCha20 is a network of 32-bit adds, xors and rotates
// over sixteen words, and scalar Go runs it one word at a time; a
// vector unit runs a row of four words, of two blocks, per instruction.
// On amd64 with AVX2 keystream8 (wide_amd64.s) makes eight blocks per
// call that way. It makes keystream and nothing else: it reads one
// fixed-size state and writes one fixed-size buffer, so every slice,
// every bounds check, the XOR against the payload and all of Poly1305
// are the Go below. Everywhere else — other architectures, amd64
// without AVX2, -tags purego — haveWide is false and XORKeyStream and
// FusedXORMAC run the bodies they had before this file existed, which
// are also what the tests hold this path against.

const (
	wideBlocks = 8
	wideSize   = wideBlocks * BlockSize
	// A keystream8 call costs about what two and a half scalar Block
	// calls do, so a run shorter than this goes block by block.
	wideMin = 3
)

// keystream writes the nb <= wideBlocks blocks at counters ctr, ctr+1,
// … (wrapping at 2^32, as ctr++ does) to ks[:nb*BlockSize]. The wide
// kernel always writes all of ks.
func keystream(key *Key, nonce *[NonceSize]byte, ctr uint32, ks *[wideSize]byte, nb int) {
	if !haveWide || nb < wideMin {
		for b := 0; b < nb; b++ {
			Block(key, nonce, ctr+uint32(b), (*[BlockSize]byte)(ks[b*BlockSize:]))
		}
		return
	}
	n0 := binary.LittleEndian.Uint32(nonce[0:])
	n1 := binary.LittleEndian.Uint32(nonce[4:])
	n2 := binary.LittleEndian.Uint32(nonce[8:])
	k := &key.k
	// The initial state as the kernel wants it: each row twice, for the
	// two blocks of a quad, and one counter row per quad.
	in := [7][8]uint32{
		{0x61707865, 0x3320646e, 0x79622d32, 0x6b206574, 0x61707865, 0x3320646e, 0x79622d32, 0x6b206574},
		{k[0], k[1], k[2], k[3], k[0], k[1], k[2], k[3]},
		{k[4], k[5], k[6], k[7], k[4], k[5], k[6], k[7]},
		{ctr, n0, n1, n2, ctr + 1, n0, n1, n2},
		{ctr + 2, n0, n1, n2, ctr + 3, n0, n1, n2},
		{ctr + 4, n0, n1, n2, ctr + 5, n0, n1, n2},
		{ctr + 6, n0, n1, n2, ctr + 7, n0, n1, n2},
	}
	keystream8(&in, ks)
}

// xorWide is the loop under both XORKeyStream and FusedXORMAC where the
// kernel runs: dst = src XOR the keystream that starts at byte skip of
// block ctr, and, with a mac, the ciphertext — dst if ctInDst, else src
// — absorbed into it. Per 512 bytes that is one kernel call for the
// keystream, one XOR of it against the source, and one Poly1305 run
// over the ciphertext, before the XOR when the ciphertext is the source
// so that dst may be src. The three steps share a loop and a buffer
// that stays in L1, not a loop body: a body that XORs and folds word by
// word with the accumulator in locals, as the two-state one does, was
// written and measured 3-4 % slower here (Poly1305 is a chain of
// dependent multiplies, the XOR is a twentieth of the work, and the
// compiler spills the chain to make room for it). Being fed from a
// buffer the loop is not tied to block boundaries either: it consumes
// all of src, so a fragment's tail costs a lane of a call that was
// being made anyway and not a Block of its own. len(dst) >= len(src).
func xorWide(key *Key, nonce *[NonceSize]byte, ctr uint32, skip int, dst, src []byte, mac *MAC, ctInDst bool) {
	var ks [wideSize]byte
	for len(src) > 0 {
		m := wideSize - skip
		if m > len(src) {
			m = len(src)
		}
		keystream(key, nonce, ctr, &ks, (skip+m+BlockSize-1)/BlockSize)
		ctr += wideBlocks
		s, d := src[:m:m], dst[:m:m]
		if mac != nil && !ctInDst {
			mac.Update(s)
		}
		xor3(d, s, ks[skip:skip+m:skip+m])
		if mac != nil && ctInDst {
			mac.Update(d)
		}
		src, dst = src[m:], dst[m:]
		skip = 0
	}
}

// xor3 sets d = s XOR k over slices of one length. Each 64-byte window
// is one full slice expression, which leaves the compiler one check per
// window to make (see ilp.XORWords).
func xor3(d, s, k []byte) {
	le := binary.LittleEndian
	n := len(s)
	j := 0
	for ; n-j >= 64; j += 64 {
		sw, dw, kw := s[j:j+64:j+64], d[j:j+64:j+64], k[j:j+64:j+64]
		le.PutUint64(dw[0:], le.Uint64(sw[0:])^le.Uint64(kw[0:]))
		le.PutUint64(dw[8:], le.Uint64(sw[8:])^le.Uint64(kw[8:]))
		le.PutUint64(dw[16:], le.Uint64(sw[16:])^le.Uint64(kw[16:]))
		le.PutUint64(dw[24:], le.Uint64(sw[24:])^le.Uint64(kw[24:]))
		le.PutUint64(dw[32:], le.Uint64(sw[32:])^le.Uint64(kw[32:]))
		le.PutUint64(dw[40:], le.Uint64(sw[40:])^le.Uint64(kw[40:]))
		le.PutUint64(dw[48:], le.Uint64(sw[48:])^le.Uint64(kw[48:]))
		le.PutUint64(dw[56:], le.Uint64(sw[56:])^le.Uint64(kw[56:]))
	}
	for ; n-j >= 8; j += 8 {
		le.PutUint64(d[j:j+8:j+8], le.Uint64(s[j:j+8:j+8])^le.Uint64(k[j:j+8:j+8]))
	}
	for ; j < n; j++ {
		d[j] = s[j] ^ k[j]
	}
}
