package cipher

import (
	"encoding/binary"
	"math/bits"
)

// MAC is an incremental Poly1305 authenticator (RFC 8439 §2.5) over a
// one-time 32-byte key: r (clamped, the evaluation point) in the first
// half, s (the final pad) in the second. It is a value type with no
// internal pointers, so the ILP kernels can keep one on the stack and
// fold ciphertext into it as it streams past — the accumulator update
// is the integrity pass, fused into the same loop as keystream
// generation and the layer-boundary copy (XORKeyStreamMAC).
//
// The 130-bit accumulator h lives in limbs h0,h1 (64 bits each) and h2
// (the two high bits plus carries). Arithmetic follows the standard
// 64×64→128 schoolbook evaluation with the 2^130 ≡ 5 (mod p) folding.
type MAC struct {
	r0, r1     uint64        // clamped r
	s0, s1     uint64        // final pad
	h0, h1, h2 uint64        // accumulator
	buf        [TagSize]byte // partial block
	n          int           // bytes buffered in buf
}

// NewMAC returns a MAC keyed with the given one-time key. A (key,
// message) pair must never repeat with a different message — the
// transport guarantees this by deriving the key from a per-fragment
// ChaCha20 block counter (see TagKey).
func NewMAC(key *[KeySize]byte) MAC {
	var m MAC
	m.Init(key)
	return m
}

// Init keys m as NewMAC keys a new MAC, in place: a MAC that lives in a
// struct of its caller's is made ready without its state being copied.
func (m *MAC) Init(key *[KeySize]byte) {
	m.r0 = binary.LittleEndian.Uint64(key[0:8]) & 0x0FFFFFFC0FFFFFFF
	m.r1 = binary.LittleEndian.Uint64(key[8:16]) & 0x0FFFFFFC0FFFFFFC
	m.s0 = binary.LittleEndian.Uint64(key[16:24])
	m.s1 = binary.LittleEndian.Uint64(key[24:32])
	m.h0, m.h1, m.h2, m.n = 0, 0, 0, 0
}

// block folds one 16-byte block (m0,m1 little-endian) into h. hibit is
// 1 for full blocks (the 2^128 marker) and 0 for the padded final
// partial block, whose 0x01 marker is already in the bytes.
func (m *MAC) block(m0, m1, hibit uint64) {
	h0, c := bits.Add64(m.h0, m0, 0)
	h1, c := bits.Add64(m.h1, m1, c)
	h2 := m.h2 + c + hibit

	// h *= r. h2 stays small (< 8) and r is clamped below 2^60, so the
	// h2 products fit in 64 bits.
	// Column sums: t0 = lo0; t1 = hi0+lo1+lo2; t2 = hi1+hi2+lo3+h2·r0;
	// t3 = hi3+h2·r1 plus propagated carries.
	hi0, lo0 := bits.Mul64(h0, m.r0)
	hi1, lo1 := bits.Mul64(h1, m.r0)
	hi2, lo2 := bits.Mul64(h0, m.r1)
	hi3, lo3 := bits.Mul64(h1, m.r1)
	t0 := lo0
	t1, ca := bits.Add64(hi0, lo1, 0)
	t1, cb := bits.Add64(t1, lo2, 0)
	t2, c2 := bits.Add64(hi1, hi2, 0)
	t3 := hi3 + c2
	t2, c2 = bits.Add64(t2, lo3, 0)
	t3 += c2
	t2, c2 = bits.Add64(t2, h2*m.r0, 0)
	t3 += c2
	t2, c2 = bits.Add64(t2, ca+cb, 0)
	t3 += c2 + h2*m.r1

	// Reduce mod p = 2^130 - 5: keep the low 130 bits, and fold the
	// high part C·2^130 back in as 5C = 4C + C, i.e. h += C + C>>2
	// where C is the 128-bit value formed by (t2 &^ 3, t3).
	h0, h1, h2 = t0, t1, t2&3
	cLo := t2 &^ 3
	cHi := t3
	h0, c = bits.Add64(h0, cLo, 0)
	h1, c = bits.Add64(h1, cHi, c)
	h2 += c
	cLo = cLo>>2 | cHi<<62
	cHi >>= 2
	h0, c = bits.Add64(h0, cLo, 0)
	h1, c = bits.Add64(h1, cHi, c)
	h2 += c

	m.h0, m.h1, m.h2 = h0, h1, h2
}

// Update absorbs p into the authenticator. It may be called any number
// of times with arbitrary split points; the digest depends only on the
// concatenation.
func (m *MAC) Update(p []byte) {
	if m.n > 0 {
		k := copy(m.buf[m.n:], p)
		m.n += k
		p = p[k:]
		if m.n < TagSize {
			return
		}
		m.n = 0
		m.block(binary.LittleEndian.Uint64(m.buf[0:8]), binary.LittleEndian.Uint64(m.buf[8:16]), 1)
	}
	for len(p) >= TagSize {
		m.block(binary.LittleEndian.Uint64(p[0:8]), binary.LittleEndian.Uint64(p[8:16]), 1)
		p = p[TagSize:]
	}
	if len(p) > 0 {
		m.n = copy(m.buf[:], p)
	}
}

// Sum finalizes the authenticator and writes the 16-byte tag into out.
// The MAC must not be used after Sum.
func (m *MAC) Sum(out []byte) {
	if m.n > 0 {
		// Final partial block: append 0x01 then zeros, no 2^128 bit.
		m.buf[m.n] = 1
		for i := m.n + 1; i < TagSize; i++ {
			m.buf[i] = 0
		}
		m.block(binary.LittleEndian.Uint64(m.buf[0:8]), binary.LittleEndian.Uint64(m.buf[8:16]), 0)
		m.n = 0
	}
	// h %= p by conditional subtraction: after the multiply-reduce, h
	// is below 2p, so one subtract-and-select suffices.
	h0, h1, h2 := m.h0, m.h1, m.h2
	t0, b := bits.Sub64(h0, 0xFFFFFFFFFFFFFFFB, 0)
	t1, b := bits.Sub64(h1, 0xFFFFFFFFFFFFFFFF, b)
	_, b = bits.Sub64(h2, 3, b)
	// b == 1 means h < p: keep h; else take t.
	mask := uint64(b) - 1 // 0 if h < p, all-ones if h >= p
	h0 = h0&^mask | t0&mask
	h1 = h1&^mask | t1&mask
	// tag = (h + s) mod 2^128
	h0, c := bits.Add64(h0, m.s0, 0)
	h1, _ = bits.Add64(h1, m.s1, c)
	binary.LittleEndian.PutUint64(out[0:8], h0)
	binary.LittleEndian.PutUint64(out[8:16], h1)
}

// Verify finalizes the authenticator and compares it with tag in
// constant time. The MAC must not be used after Verify.
func (m *MAC) Verify(tag []byte) bool {
	var want [TagSize]byte
	m.Sum(want[:])
	var v byte
	for i := 0; i < TagSize; i++ {
		v |= want[i] ^ tag[i]
	}
	return v == 0
}
