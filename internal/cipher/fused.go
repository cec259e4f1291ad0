package cipher

import (
	"encoding/binary"
	"math/bits"
)

// This file is the one-pass AEAD engine behind ilp.FusedEncryptCopyMAC
// and ilp.FusedDecryptCopyVerify. The loop bodies below are mechanical
// expansions (two interleaved ChaCha20 block states per iteration, the
// Poly1305 block folded inline); the shapes were derived from Block and
// MAC.block above, and the RFC-vector tests plus the ilp fuzz target
// cross-check this path against the staged primitives byte-for-byte.
//
// Why it looks like this:
//
//   - Two independent ChaCha20 states per iteration give the
//     out-of-order core eight parallel quarter-round chains instead of
//     four, lifting IPC on the ALU ports.
//   - The Poly1305 accumulator lives in locals for the whole run (no
//     store/load of h per 16-byte block, no call boundaries), so its
//     multiply chain — which uses the multiplier ports ChaCha20 barely
//     touches — executes underneath the next blocks' rounds. This is
//     the instruction-level form of the paper's §6 argument: integrity
//     and encryption share one pass, and the hardware overlaps them.
//   - The keystream is never materialized: state words are XORed
//     against the source during serialization, in registers.
//
// That body is the path of every build and machine without the wide
// kernel, and the oracle the wide path is tested against. Where
// keystream8mac can run (wide.go) a run of wideMin blocks or more goes
// to xorWide instead: same contract, the keystream from a buffer the
// kernel fills eight blocks at a time while it folds the Poly1305
// blocks of a chunk on the side.
//
// FusedXORMAC processes src into dst starting at block counter ctr: dst
// = src XOR keystream, and the ciphertext stream (dst words when
// encrypting — ctInDst true — or src words when decrypting) is absorbed
// into mac. mac must have no buffered partial bytes (Aligned). It
// processes a prefix of src and returns its length: every whole 64-byte
// block, and on the wide path the tail as well. The caller handles what
// is left and intra-block offsets. A chain ch, when encrypting (nil
// otherwise), may keep the end of the ciphertext from mac, which the
// caller must then finish with ch.Sum once it has absorbed all it will.
func FusedXORMAC(key *Key, nonce *[NonceSize]byte, ctr uint32, dst, src []byte, mac *MAC, ch *Chain, ctInDst bool) int {
	if mac.n != 0 {
		panic("cipher: FusedXORMAC requires an aligned MAC")
	}
	if haveWide && len(src) >= wideMin*BlockSize {
		xorWide(key, nonce, ctr, 0, dst[:len(src)], src, mac, ch, ctInDst)
		return len(src)
	}
	n := len(src) / BlockSize * BlockSize
	if len(dst) < n {
		panic("cipher: FusedXORMAC dst shorter than src blocks")
	}
	// mask selects the Poly1305 input: 0 → ciphertext is the XOR result
	// (encrypt), all-ones → ciphertext is the raw source (decrypt).
	var mask uint64
	if !ctInDst {
		mask = ^uint64(0)
	}
	h0, h1, h2 := mac.h0, mac.h1, mac.h2
	r0, r1 := mac.r0, mac.r1
	var c, ca, cb, c2 uint64
	var hi0, lo0, hi1, lo1, hi2, lo2, hi3, lo3 uint64
	var t1, t2, t3, cl uint64
	n0 := binary.LittleEndian.Uint32(nonce[0:])
	n1 := binary.LittleEndian.Uint32(nonce[4:])
	n2 := binary.LittleEndian.Uint32(nonce[8:])
	k := key.k
	pair := n / (2 * BlockSize) * (2 * BlockSize)
	i := 0
	for ; i < pair; i += 2 * BlockSize {
		s := src[i : i+2*BlockSize : i+2*BlockSize]
		d := dst[i : i+2*BlockSize : i+2*BlockSize]
		a0, a1, a2, a3 := uint32(0x61707865), uint32(0x3320646e), uint32(0x79622d32), uint32(0x6b206574)
		a4, a5, a6, a7 := k[0], k[1], k[2], k[3]
		a8, a9, a10, a11 := k[4], k[5], k[6], k[7]
		a12, a13, a14, a15 := ctr, n0, n1, n2
		ctrB := ctr + 1
		b0, b1, b2, b3 := uint32(0x61707865), uint32(0x3320646e), uint32(0x79622d32), uint32(0x6b206574)
		b4, b5, b6, b7 := k[0], k[1], k[2], k[3]
		b8, b9, b10, b11 := k[4], k[5], k[6], k[7]
		b12, b13, b14, b15 := ctrB, n0, n1, n2
		for r := 0; r < 10; r++ {
			a0 += a4
			a12 ^= a0
			a12 = a12<<16 | a12>>16
			a8 += a12
			a4 ^= a8
			a4 = a4<<12 | a4>>20
			a0 += a4
			a12 ^= a0
			a12 = a12<<8 | a12>>24
			a8 += a12
			a4 ^= a8
			a4 = a4<<7 | a4>>25
			b0 += b4
			b12 ^= b0
			b12 = b12<<16 | b12>>16
			b8 += b12
			b4 ^= b8
			b4 = b4<<12 | b4>>20
			b0 += b4
			b12 ^= b0
			b12 = b12<<8 | b12>>24
			b8 += b12
			b4 ^= b8
			b4 = b4<<7 | b4>>25
			a1 += a5
			a13 ^= a1
			a13 = a13<<16 | a13>>16
			a9 += a13
			a5 ^= a9
			a5 = a5<<12 | a5>>20
			a1 += a5
			a13 ^= a1
			a13 = a13<<8 | a13>>24
			a9 += a13
			a5 ^= a9
			a5 = a5<<7 | a5>>25
			b1 += b5
			b13 ^= b1
			b13 = b13<<16 | b13>>16
			b9 += b13
			b5 ^= b9
			b5 = b5<<12 | b5>>20
			b1 += b5
			b13 ^= b1
			b13 = b13<<8 | b13>>24
			b9 += b13
			b5 ^= b9
			b5 = b5<<7 | b5>>25
			a2 += a6
			a14 ^= a2
			a14 = a14<<16 | a14>>16
			a10 += a14
			a6 ^= a10
			a6 = a6<<12 | a6>>20
			a2 += a6
			a14 ^= a2
			a14 = a14<<8 | a14>>24
			a10 += a14
			a6 ^= a10
			a6 = a6<<7 | a6>>25
			b2 += b6
			b14 ^= b2
			b14 = b14<<16 | b14>>16
			b10 += b14
			b6 ^= b10
			b6 = b6<<12 | b6>>20
			b2 += b6
			b14 ^= b2
			b14 = b14<<8 | b14>>24
			b10 += b14
			b6 ^= b10
			b6 = b6<<7 | b6>>25
			a3 += a7
			a15 ^= a3
			a15 = a15<<16 | a15>>16
			a11 += a15
			a7 ^= a11
			a7 = a7<<12 | a7>>20
			a3 += a7
			a15 ^= a3
			a15 = a15<<8 | a15>>24
			a11 += a15
			a7 ^= a11
			a7 = a7<<7 | a7>>25
			b3 += b7
			b15 ^= b3
			b15 = b15<<16 | b15>>16
			b11 += b15
			b7 ^= b11
			b7 = b7<<12 | b7>>20
			b3 += b7
			b15 ^= b3
			b15 = b15<<8 | b15>>24
			b11 += b15
			b7 ^= b11
			b7 = b7<<7 | b7>>25
			a0 += a5
			a15 ^= a0
			a15 = a15<<16 | a15>>16
			a10 += a15
			a5 ^= a10
			a5 = a5<<12 | a5>>20
			a0 += a5
			a15 ^= a0
			a15 = a15<<8 | a15>>24
			a10 += a15
			a5 ^= a10
			a5 = a5<<7 | a5>>25
			b0 += b5
			b15 ^= b0
			b15 = b15<<16 | b15>>16
			b10 += b15
			b5 ^= b10
			b5 = b5<<12 | b5>>20
			b0 += b5
			b15 ^= b0
			b15 = b15<<8 | b15>>24
			b10 += b15
			b5 ^= b10
			b5 = b5<<7 | b5>>25
			a1 += a6
			a12 ^= a1
			a12 = a12<<16 | a12>>16
			a11 += a12
			a6 ^= a11
			a6 = a6<<12 | a6>>20
			a1 += a6
			a12 ^= a1
			a12 = a12<<8 | a12>>24
			a11 += a12
			a6 ^= a11
			a6 = a6<<7 | a6>>25
			b1 += b6
			b12 ^= b1
			b12 = b12<<16 | b12>>16
			b11 += b12
			b6 ^= b11
			b6 = b6<<12 | b6>>20
			b1 += b6
			b12 ^= b1
			b12 = b12<<8 | b12>>24
			b11 += b12
			b6 ^= b11
			b6 = b6<<7 | b6>>25
			a2 += a7
			a13 ^= a2
			a13 = a13<<16 | a13>>16
			a8 += a13
			a7 ^= a8
			a7 = a7<<12 | a7>>20
			a2 += a7
			a13 ^= a2
			a13 = a13<<8 | a13>>24
			a8 += a13
			a7 ^= a8
			a7 = a7<<7 | a7>>25
			b2 += b7
			b13 ^= b2
			b13 = b13<<16 | b13>>16
			b8 += b13
			b7 ^= b8
			b7 = b7<<12 | b7>>20
			b2 += b7
			b13 ^= b2
			b13 = b13<<8 | b13>>24
			b8 += b13
			b7 ^= b8
			b7 = b7<<7 | b7>>25
			a3 += a4
			a14 ^= a3
			a14 = a14<<16 | a14>>16
			a9 += a14
			a4 ^= a9
			a4 = a4<<12 | a4>>20
			a3 += a4
			a14 ^= a3
			a14 = a14<<8 | a14>>24
			a9 += a14
			a4 ^= a9
			a4 = a4<<7 | a4>>25
			b3 += b4
			b14 ^= b3
			b14 = b14<<16 | b14>>16
			b9 += b14
			b4 ^= b9
			b4 = b4<<12 | b4>>20
			b3 += b4
			b14 ^= b3
			b14 = b14<<8 | b14>>24
			b9 += b14
			b4 ^= b9
			b4 = b4<<7 | b4>>25
		}
		var sva, svb, wa, wb [8]uint64
		sva[0] = binary.LittleEndian.Uint64(s[0:8])
		wa[0] = sva[0] ^ (uint64(a0+0x61707865) | uint64(a1+0x3320646e)<<32)
		sva[1] = binary.LittleEndian.Uint64(s[8:16])
		wa[1] = sva[1] ^ (uint64(a2+0x79622d32) | uint64(a3+0x6b206574)<<32)
		sva[2] = binary.LittleEndian.Uint64(s[16:24])
		wa[2] = sva[2] ^ (uint64(a4+k[0]) | uint64(a5+k[1])<<32)
		sva[3] = binary.LittleEndian.Uint64(s[24:32])
		wa[3] = sva[3] ^ (uint64(a6+k[2]) | uint64(a7+k[3])<<32)
		sva[4] = binary.LittleEndian.Uint64(s[32:40])
		wa[4] = sva[4] ^ (uint64(a8+k[4]) | uint64(a9+k[5])<<32)
		sva[5] = binary.LittleEndian.Uint64(s[40:48])
		wa[5] = sva[5] ^ (uint64(a10+k[6]) | uint64(a11+k[7])<<32)
		sva[6] = binary.LittleEndian.Uint64(s[48:56])
		wa[6] = sva[6] ^ (uint64(a12+ctr) | uint64(a13+n0)<<32)
		sva[7] = binary.LittleEndian.Uint64(s[56:64])
		wa[7] = sva[7] ^ (uint64(a14+n1) | uint64(a15+n2)<<32)
		svb[0] = binary.LittleEndian.Uint64(s[64:72])
		wb[0] = svb[0] ^ (uint64(b0+0x61707865) | uint64(b1+0x3320646e)<<32)
		svb[1] = binary.LittleEndian.Uint64(s[72:80])
		wb[1] = svb[1] ^ (uint64(b2+0x79622d32) | uint64(b3+0x6b206574)<<32)
		svb[2] = binary.LittleEndian.Uint64(s[80:88])
		wb[2] = svb[2] ^ (uint64(b4+k[0]) | uint64(b5+k[1])<<32)
		svb[3] = binary.LittleEndian.Uint64(s[88:96])
		wb[3] = svb[3] ^ (uint64(b6+k[2]) | uint64(b7+k[3])<<32)
		svb[4] = binary.LittleEndian.Uint64(s[96:104])
		wb[4] = svb[4] ^ (uint64(b8+k[4]) | uint64(b9+k[5])<<32)
		svb[5] = binary.LittleEndian.Uint64(s[104:112])
		wb[5] = svb[5] ^ (uint64(b10+k[6]) | uint64(b11+k[7])<<32)
		svb[6] = binary.LittleEndian.Uint64(s[112:120])
		wb[6] = svb[6] ^ (uint64(b12+ctrB) | uint64(b13+n0)<<32)
		svb[7] = binary.LittleEndian.Uint64(s[120:128])
		wb[7] = svb[7] ^ (uint64(b14+n1) | uint64(b15+n2)<<32)
		ctr += 2
		binary.LittleEndian.PutUint64(d[0:8], wa[0])
		binary.LittleEndian.PutUint64(d[8:16], wa[1])
		binary.LittleEndian.PutUint64(d[16:24], wa[2])
		binary.LittleEndian.PutUint64(d[24:32], wa[3])
		binary.LittleEndian.PutUint64(d[32:40], wa[4])
		binary.LittleEndian.PutUint64(d[40:48], wa[5])
		binary.LittleEndian.PutUint64(d[48:56], wa[6])
		binary.LittleEndian.PutUint64(d[56:64], wa[7])
		binary.LittleEndian.PutUint64(d[64:72], wb[0])
		binary.LittleEndian.PutUint64(d[72:80], wb[1])
		binary.LittleEndian.PutUint64(d[80:88], wb[2])
		binary.LittleEndian.PutUint64(d[88:96], wb[3])
		binary.LittleEndian.PutUint64(d[96:104], wb[4])
		binary.LittleEndian.PutUint64(d[104:112], wb[5])
		binary.LittleEndian.PutUint64(d[112:120], wb[6])
		binary.LittleEndian.PutUint64(d[120:128], wb[7])
		for j := 0; j < 8; j += 2 {
			pA := wa[j] ^ ((wa[j] ^ sva[j]) & mask)
			pB := wa[j+1] ^ ((wa[j+1] ^ sva[j+1]) & mask)
			h0, c = bits.Add64(h0, pA, 0)
			h1, c = bits.Add64(h1, pB, c)
			h2 += c + 1
			hi0, lo0 = bits.Mul64(h0, r0)
			hi1, lo1 = bits.Mul64(h1, r0)
			hi2, lo2 = bits.Mul64(h0, r1)
			hi3, lo3 = bits.Mul64(h1, r1)
			t1, ca = bits.Add64(hi0, lo1, 0)
			t1, cb = bits.Add64(t1, lo2, 0)
			t2, c2 = bits.Add64(hi1, hi2, 0)
			t3 = hi3 + c2
			t2, c2 = bits.Add64(t2, lo3, 0)
			t3 += c2
			t2, c2 = bits.Add64(t2, h2*r0, 0)
			t3 += c2
			t2, c2 = bits.Add64(t2, ca+cb, 0)
			t3 += c2 + h2*r1
			h0, h1, h2 = lo0, t1, t2&3
			cl = t2 &^ 3
			h0, c = bits.Add64(h0, cl, 0)
			h1, c = bits.Add64(h1, t3, c)
			h2 += c
			cl = cl>>2 | t3<<62
			h0, c = bits.Add64(h0, cl, 0)
			h1, c = bits.Add64(h1, t3>>2, c)
			h2 += c
		}
		for j := 0; j < 8; j += 2 {
			pA := wb[j] ^ ((wb[j] ^ svb[j]) & mask)
			pB := wb[j+1] ^ ((wb[j+1] ^ svb[j+1]) & mask)
			h0, c = bits.Add64(h0, pA, 0)
			h1, c = bits.Add64(h1, pB, c)
			h2 += c + 1
			hi0, lo0 = bits.Mul64(h0, r0)
			hi1, lo1 = bits.Mul64(h1, r0)
			hi2, lo2 = bits.Mul64(h0, r1)
			hi3, lo3 = bits.Mul64(h1, r1)
			t1, ca = bits.Add64(hi0, lo1, 0)
			t1, cb = bits.Add64(t1, lo2, 0)
			t2, c2 = bits.Add64(hi1, hi2, 0)
			t3 = hi3 + c2
			t2, c2 = bits.Add64(t2, lo3, 0)
			t3 += c2
			t2, c2 = bits.Add64(t2, h2*r0, 0)
			t3 += c2
			t2, c2 = bits.Add64(t2, ca+cb, 0)
			t3 += c2 + h2*r1
			h0, h1, h2 = lo0, t1, t2&3
			cl = t2 &^ 3
			h0, c = bits.Add64(h0, cl, 0)
			h1, c = bits.Add64(h1, t3, c)
			h2 += c
			cl = cl>>2 | t3<<62
			h0, c = bits.Add64(h0, cl, 0)
			h1, c = bits.Add64(h1, t3>>2, c)
			h2 += c
		}
	}
	mac.h0, mac.h1, mac.h2 = h0, h1, h2
	// Odd trailing 64-byte block.
	if i < n {
		var ks [BlockSize]byte
		Block(key, nonce, ctr, &ks)
		for j := 0; j < BlockSize; j += 16 {
			s0 := binary.LittleEndian.Uint64(src[i+j:])
			s1 := binary.LittleEndian.Uint64(src[i+j+8:])
			w0 := s0 ^ binary.LittleEndian.Uint64(ks[j:])
			w1 := s1 ^ binary.LittleEndian.Uint64(ks[j+8:])
			binary.LittleEndian.PutUint64(dst[i+j:], w0)
			binary.LittleEndian.PutUint64(dst[i+j+8:], w1)
			mac.UpdateWords(w0^((w0^s0)&mask), w1^((w1^s1)&mask))
		}
	}
	return n
}

// Aligned reports whether the MAC has no buffered partial block, i.e.
// the bytes absorbed so far are a multiple of 16 — the precondition for
// the word-fed fast paths (UpdateWords, FusedXORMAC).
func (m *MAC) Aligned() bool { return m.n == 0 }
