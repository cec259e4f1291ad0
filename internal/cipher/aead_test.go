package cipher

import "encoding/binary"

// Seal is the RFC 8439 §2.8 AEAD_CHACHA20_POLY1305 construction:
// encrypt plaintext with the keystream starting at block counter 1,
// authenticate aad‖pad16‖ciphertext‖pad16‖len(aad)‖len(ciphertext)
// under the one-time key from block counter 0, and append the 16-byte
// tag. The ciphertext‖tag is appended to dst and returned.
//
// The transport datapath does not use Seal/Open — it fuses the same
// primitives per fragment (see ilp.FusedEncryptCopyMAC); Seal is the
// staged reference construction, anchored to the RFC §2.8.2 test
// vector, that the tests hold the fused path to.
func Seal(dst []byte, key *Key, nonce *[NonceSize]byte, plaintext, aad []byte) []byte {
	off := len(dst)
	n := len(plaintext)
	dst = append(dst, make([]byte, n+TagSize)...)
	ct := dst[off : off+n]
	XORKeyStream(key, nonce, 0, ct, plaintext)
	var otk [KeySize]byte
	TagKey(key, nonce, 0, &otk)
	mac := NewMAC(&otk)
	macPadded(&mac, aad)
	macPadded(&mac, ct)
	var lens [16]byte
	binary.LittleEndian.PutUint64(lens[0:8], uint64(len(aad)))
	binary.LittleEndian.PutUint64(lens[8:16], uint64(n))
	mac.Update(lens[:])
	mac.Sum(dst[off+n : off+n+TagSize])
	return dst
}

// Open verifies and decrypts a Seal output (ciphertext‖tag). The
// plaintext is appended to dst; ok is false (and dst is returned
// unextended) if the tag does not authenticate.
func Open(dst []byte, key *Key, nonce *[NonceSize]byte, box, aad []byte) ([]byte, bool) {
	if len(box) < TagSize {
		return dst, false
	}
	ct, tag := box[:len(box)-TagSize], box[len(box)-TagSize:]
	var otk [KeySize]byte
	TagKey(key, nonce, 0, &otk)
	mac := NewMAC(&otk)
	macPadded(&mac, aad)
	macPadded(&mac, ct)
	var lens [16]byte
	binary.LittleEndian.PutUint64(lens[0:8], uint64(len(aad)))
	binary.LittleEndian.PutUint64(lens[8:16], uint64(len(ct)))
	mac.Update(lens[:])
	if !mac.Verify(tag) {
		return dst, false
	}
	off := len(dst)
	dst = append(dst, make([]byte, len(ct))...)
	XORKeyStream(key, nonce, 0, dst[off:], ct)
	return dst, true
}

// macPadded absorbs p followed by zero padding to a 16-byte boundary
// (RFC 8439 §2.8's pad16).
func macPadded(mac *MAC, p []byte) {
	mac.Update(p)
	if r := len(p) % 16; r != 0 {
		var pad [16]byte
		mac.Update(pad[:16-r])
	}
}
