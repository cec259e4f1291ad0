package ilp

import "repro/internal/cipher"

// This file holds the AEAD tier of the integrated-layer-processing
// kernels: ChaCha20 keystream generation, the layer-boundary copy, and
// Poly1305 accumulation fused into one pass over the payload. That pass
// is cipher.XORKeyStreamMAC, the one keystream loop every AEAD byte
// crosses on every build, and the kernels here are its entry points.
// The keystream is addressed by byte offset, so — like the
// scramble.WordAt kernels — any 8-byte-aligned fragment offset is its
// own synchronization point and fragments can be processed out of
// order. The Poly1305 tag replaces the Internet checksum as the
// integrity pass when the AEAD suite is on: integrity is still checked
// in the same single pass that moves the bytes, which is the paper's §6
// argument with a modern cipher doing the work.
//
// The layered contrast (the tests' Staged* references, EXPERIMENTS C1)
// is the same primitives with one full memory pass per layer — copy
// across the layer boundary, then encrypt, then MAC. With a keystream
// kernel the fused pass has each call read the source, write the
// destination and fold a chunk of ciphertext on the integer ports while
// it makes keystream on the vector ports, and the staged one pays for
// its Poly1305 pass in Go after the keystream. In
// pure Go both make the keystream with cipher.Block and fold with
// MAC.Update, so there the two differ by schedule — one pass over the
// bytes or three — and not by kernel.

// aeadOff returns off after checking the precondition every ilp kernel
// keyed by a stream offset shares: a multiple of 8, so that a fragment
// starts on a word of the stream. Where off falls in the keystream is
// cipher.XORKeyStreamMAC's to say.
func aeadOff(off int) int {
	if off%8 != 0 {
		panic("ilp: AEAD kernel offset must be 8-byte aligned")
	}
	return off
}

// FusedEncryptCopyMAC reads plaintext from src, writes ciphertext into
// dst, and accumulates the ciphertext into mac, in one pass. off is the
// byte offset of src within the ADU keystream (multiple of 8). mac may
// be nil, in which case the kernel is encrypt+copy only, which is
// cipher.XORKeyStream. len(dst) must be >= len(src); it returns
// len(src).
func FusedEncryptCopyMAC(dst, src []byte, key *cipher.Key, nonce *[cipher.NonceSize]byte, off int, mac *cipher.MAC) int {
	return cipher.XORKeyStreamMAC(key, nonce, aeadOff(off), dst[:len(src)], src, mac, nil, nil, true)
}

// FusedSeal is FusedEncryptCopyMAC that also finishes the tag, into
// dst[n:n+cipher.TagSize] behind the n = len(src) bytes of ciphertext.
// Sealed through a chain, the MAC's last chunk may ride in the kernel
// call that seals the next fragment through ch, and the tag is written
// then: a run of fragments sealed through one chain is finished by
// ch.Flush, before any of their tags is read. mac must not be nil. head
// is the fragment's head block if the caller made it, else nil
// (cipher.XORKeyStreamMAC).
func FusedSeal(dst, src []byte, key *cipher.Key, nonce *[cipher.NonceSize]byte, off int, mac *cipher.MAC, ch *cipher.Chain, head *[cipher.BlockSize]byte) int {
	n := cipher.XORKeyStreamMAC(key, nonce, aeadOff(off), dst[:len(src)], src, mac, ch, head, true)
	ch.Sum(mac, dst[:n], dst[n:n+cipher.TagSize])
	return n
}

// FusedOpen is FusedDecryptCopyVerify with the fragment's head block,
// if the caller made it, as FusedSeal takes it.
func FusedOpen(dst, src []byte, key *cipher.Key, nonce *[cipher.NonceSize]byte, off int, mac *cipher.MAC, head *[cipher.BlockSize]byte) int {
	return cipher.XORKeyStreamMAC(key, nonce, aeadOff(off), dst[:len(src)], src, mac, nil, head, false)
}

// FusedDecryptCopyVerify is the receive-side mirror: it reads
// ciphertext from src, accumulates the ciphertext into mac, and writes
// plaintext into dst, in one pass. The ciphertext is absorbed before it
// is deciphered, so dst may be src. The caller finalizes mac against the
// fragment's tag (MAC.Verify) and must discard the fragment range if it
// fails — the plaintext has already been placed, which is safe as long
// as the range is only accounted as received on success. mac may be nil
// for pre-authenticated data (FEC-reconstructed fragments, whose bytes
// are authenticated transitively by the parity tag and the surviving
// fragments' tags). len(dst) must be >= len(src); returns len(src).
func FusedDecryptCopyVerify(dst, src []byte, key *cipher.Key, nonce *[cipher.NonceSize]byte, off int, mac *cipher.MAC) int {
	return FusedOpen(dst, src, key, nonce, off, mac, nil)
}
