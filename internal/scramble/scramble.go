// Package scramble implements a keystream cipher used as the encryption
// data-manipulation stage (paper §3). The paper's argument is structural:
// encryption is one more pass that reads and writes every byte, and ILP
// should be able to fuse it with the other passes. Any byte-wise
// keystream cipher exercises that code path, so this package uses a
// position-addressable ("counter mode") stream: word idx of the stream
// under a 64-bit key is splitmix64 of key and idx, so any 8-byte-aligned
// piece of the data can be enciphered or deciphered on its own, in any
// order — the shape Application Level Framing asks of every
// manipulation.
//
// SECURITY: this is a simulation stage, NOT a real cipher. Do not use it
// to protect data.
package scramble

import "encoding/binary"

// WordAt returns the keystream word for 8-byte word index idx under
// key. Needing no earlier word, it lets each ADU be its own
// cryptographic synchronization point.
func WordAt(key, idx uint64) uint64 {
	z := key + (idx+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// XORAt applies the counter-mode keystream to buf, which begins at the
// given byte offset within the stream. offset must be a multiple of 8;
// buf may end at any byte. Encrypt and decrypt are the same operation.
func XORAt(key uint64, offset int, buf []byte) {
	if offset%8 != 0 {
		panic("scramble: XORAt offset must be 8-byte aligned")
	}
	idx := uint64(offset / 8)
	i := 0
	for ; len(buf)-i >= 8; i += 8 {
		w := binary.LittleEndian.Uint64(buf[i:])
		binary.LittleEndian.PutUint64(buf[i:], w^WordAt(key, idx))
		idx++
	}
	if i < len(buf) {
		w := WordAt(key, idx)
		for ; i < len(buf); i++ {
			buf[i] ^= byte(w)
			w >>= 8
		}
	}
}
