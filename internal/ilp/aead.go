package ilp

import (
	"encoding/binary"

	"repro/internal/cipher"
)

// This file holds the AEAD tier of the integrated-layer-processing
// kernels: real ChaCha20 keystream generation, the layer-boundary copy,
// and Poly1305 accumulation fused into one loop over the payload. The
// ChaCha20 block counter is derived from the byte offset, so — like the
// scramble.WordAt kernels above — any 8-byte-aligned fragment offset is
// its own synchronization point and fragments can be processed out of
// order. The Poly1305 tag replaces the Internet checksum as the
// integrity pass when the AEAD suite is on: integrity is still checked
// in the same single pass that moves the bytes, which is the paper's §6
// argument with a modern cipher doing the work.
//
// The Staged* variants are the layered contrast (A1 ablation): the same
// primitives, but one full memory pass per layer — copy across the
// layer boundary, then encrypt, then MAC. In pure Go each pass alone is
// latency-bound (ChaCha20 on the ALU ports, Poly1305 on the multiplier)
// and they serialize, while the fused loop lets the out-of-order core
// overlap the Poly1305 multiply chain of one block with the ChaCha20
// rounds of the next. With the AVX2 kernel the same holds one level up:
// the fused loop has each call fold a chunk of ciphertext on the
// integer ports while it makes keystream on the vector ports, and the
// staged one, which reaches the kernel through cipher.XORKeyStream,
// pays for its Poly1305 pass in Go (EXPERIMENTS C1).

// aeadOff converts a byte offset into a (block counter, intra-block
// skip) pair for the payload keystream, which starts at block counter 1
// (counter 0 and the high-counter ranges are reserved for one-time MAC
// keys — see internal/core).
func aeadOff(off int) (uint32, int) {
	if off%8 != 0 {
		panic("ilp: AEAD kernel offset must be 8-byte aligned")
	}
	return uint32(1 + off/cipher.BlockSize), off % cipher.BlockSize
}

// FusedEncryptCopyMAC reads plaintext from src, writes ciphertext into
// dst, and accumulates the ciphertext into mac, in one pass. From the
// first block boundary on that is cipher.FusedXORMAC. In pure Go it
// runs two interleaved block states and feeds the ciphertext words to
// the Poly1305 accumulator while they are still in registers; where the
// AVX2 kernel runs it takes the keystream eight blocks at a time into a
// 512-byte stack buffer, XORs those 512 bytes, and has the next call
// fold them into the MAC while it makes its own keystream. What is left
// (a head that starts mid-block, a tail FusedXORMAC did not take, a MAC
// that is not at a 16-byte boundary) goes block by block through a
// 64-byte stack buffer. off is the byte offset of src within the ADU
// keystream (multiple of 8). mac may be nil, in which case the kernel
// is encrypt+copy only, which is cipher.XORKeyStream. len(dst) must be
// >= len(src); it returns len(src).
func FusedEncryptCopyMAC(dst, src []byte, key *cipher.Key, nonce *[cipher.NonceSize]byte, off int, mac *cipher.MAC) int {
	return encryptCopyMAC(dst, src, key, nonce, off, mac, nil)
}

// FusedSeal is FusedEncryptCopyMAC that also finishes the tag, into
// dst[n:n+cipher.TagSize] behind the n = len(src) bytes of ciphertext.
// Sealed through a chain, the MAC's last chunk may ride in the kernel
// call that seals the next fragment through ch, and the tag is written
// then: a run of fragments sealed through one chain is finished by
// ch.Flush, before any of their tags is read. mac must not be nil.
func FusedSeal(dst, src []byte, key *cipher.Key, nonce *[cipher.NonceSize]byte, off int, mac *cipher.MAC, ch *cipher.Chain) int {
	n := encryptCopyMAC(dst, src, key, nonce, off, mac, ch)
	ch.Sum(mac, dst[:n], dst[n:n+cipher.TagSize])
	return n
}

func encryptCopyMAC(dst, src []byte, key *cipher.Key, nonce *[cipher.NonceSize]byte, off int, mac *cipher.MAC, ch *cipher.Chain) int {
	ctr, skip := aeadOff(off)
	n := len(src)
	if mac == nil {
		return cipher.XORKeyStream(key, nonce, off, dst[:n], src)
	}
	var ks [cipher.BlockSize]byte
	i := 0
	for i < n {
		if skip == 0 && mac.Aligned() && n-i >= cipher.BlockSize {
			p := cipher.FusedXORMAC(key, nonce, ctr, dst[i:n], src[i:n], mac, ch, true)
			ctr += uint32(p / cipher.BlockSize)
			skip = p % cipher.BlockSize
			i += p
			continue
		}
		cipher.Block(key, nonce, ctr, &ks)
		ctr++
		m := cipher.BlockSize - skip
		if m > n-i {
			m = n - i
		}
		j := 0
		for ; m-j >= 8; j += 8 {
			w := binary.LittleEndian.Uint64(src[i+j:]) ^ binary.LittleEndian.Uint64(ks[skip+j:])
			binary.LittleEndian.PutUint64(dst[i+j:], w)
		}
		for ; j < m; j++ {
			dst[i+j] = src[i+j] ^ ks[skip+j]
		}
		mac.Update(dst[i : i+m])
		i += m
		skip = 0
	}
	return n
}

// FusedDecryptCopyVerify is the receive-side mirror: it reads
// ciphertext from src, accumulates the ciphertext into mac, and writes
// plaintext into dst, in one pass. The caller finalizes mac against the
// fragment's tag (MAC.Verify) and must discard the fragment range if it
// fails — the plaintext has already been placed, which is safe as long
// as the range is only accounted as received on success. mac may be nil
// for pre-authenticated data (FEC-reconstructed fragments, whose bytes
// are authenticated transitively by the parity tag and the surviving
// fragments' tags). len(dst) must be >= len(src); returns len(src).
func FusedDecryptCopyVerify(dst, src []byte, key *cipher.Key, nonce *[cipher.NonceSize]byte, off int, mac *cipher.MAC) int {
	ctr, skip := aeadOff(off)
	n := len(src)
	if mac == nil {
		return cipher.XORKeyStream(key, nonce, off, dst[:n], src)
	}
	var ks [cipher.BlockSize]byte
	i := 0
	for i < n {
		if skip == 0 && mac.Aligned() && n-i >= cipher.BlockSize {
			p := cipher.FusedXORMAC(key, nonce, ctr, dst[i:n], src[i:n], mac, nil, false)
			ctr += uint32(p / cipher.BlockSize)
			skip = p % cipher.BlockSize
			i += p
			continue
		}
		cipher.Block(key, nonce, ctr, &ks)
		ctr++
		m := cipher.BlockSize - skip
		if m > n-i {
			m = n - i
		}
		// The ciphertext is absorbed before it is deciphered, so dst
		// may be src.
		mac.Update(src[i : i+m])
		j := 0
		for ; m-j >= 8; j += 8 {
			w := binary.LittleEndian.Uint64(src[i+j:]) ^ binary.LittleEndian.Uint64(ks[skip+j:])
			binary.LittleEndian.PutUint64(dst[i+j:], w)
		}
		for ; j < m; j++ {
			dst[i+j] = src[i+j] ^ ks[skip+j]
		}
		i += m
		skip = 0
	}
	return n
}

// StagedEncryptCopyMAC performs the same transformation as
// FusedEncryptCopyMAC the way a layered stack does: one full pass to
// copy the plaintext across the layer boundary, one full pass to
// encrypt it in place, one full pass to MAC the ciphertext. This is the
// A1 contrast the fused kernel is measured against.
func StagedEncryptCopyMAC(dst, src []byte, key *cipher.Key, nonce *[cipher.NonceSize]byte, off int, mac *cipher.MAC) int {
	n := WordCopy(dst, src)
	cipher.XORKeyStream(key, nonce, off, dst[:n], dst[:n])
	if mac != nil {
		mac.Update(dst[:n])
	}
	return n
}

// StagedDecryptCopyVerify is the layered receive mirror: copy the
// ciphertext into place, MAC it, then decrypt in place — three full
// memory passes.
func StagedDecryptCopyVerify(dst, src []byte, key *cipher.Key, nonce *[cipher.NonceSize]byte, off int, mac *cipher.MAC) int {
	n := WordCopy(dst, src)
	if mac != nil {
		mac.Update(dst[:n])
	}
	cipher.XORKeyStream(key, nonce, off, dst[:n], dst[:n])
	return n
}
