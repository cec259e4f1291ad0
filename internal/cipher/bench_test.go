package cipher

import (
	"strconv"
	"testing"
)

func BenchmarkChaCha20Block(b *testing.B) {
	key := ExpandKey(1)
	var nonce [NonceSize]byte
	var out [BlockSize]byte
	b.SetBytes(BlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Block(&key, &nonce, uint32(i), &out)
	}
}

// BenchmarkKeystreamWide is sixteen blocks from one keystream call —
// one AVX-512 kernel call, two AVX2 ones, or sixteen scalar Blocks,
// whichever this machine runs — to set against BenchmarkChaCha20Block,
// the scalar reference.
func BenchmarkKeystreamWide(b *testing.B) {
	key := ExpandKey(1)
	var nonce [NonceSize]byte
	var ks [wideSize]byte
	b.SetBytes(wideSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keystream(&key, &nonce, seq(uint32(i)), &ks, Lanes, nil, nil)
	}
}

// BenchmarkKeystreamMAC is the same call folding 0 and 64 Poly1305
// blocks (one 1 KiB chunk) on the side. The difference between the
// two, against 64 blocks through MAC.block (BenchmarkPoly1305_4KB / 4),
// is how much of the MAC the keystream hides.
func BenchmarkKeystreamMAC(b *testing.B) {
	key := ExpandKey(1)
	var nonce [NonceSize]byte
	var otk [KeySize]byte
	msg := make([]byte, wideSize)
	for _, nblk := range []int{0, 64} {
		b.Run(strconv.Itoa(nblk), func(b *testing.B) {
			mac := NewMAC(&otk)
			var ks [wideSize]byte
			b.SetBytes(wideSize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				keystream(&key, &nonce, seq(uint32(i)), &ks, Lanes, &mac, msg[:nblk*TagSize])
			}
		})
	}
}

func BenchmarkXORKeyStream4KB(b *testing.B) {
	key := ExpandKey(2)
	var nonce [NonceSize]byte
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		XORKeyStream(&key, &nonce, 0, buf, buf)
	}
}

func BenchmarkPoly1305_4KB(b *testing.B) {
	var otk [KeySize]byte
	for i := range otk {
		otk[i] = byte(i)
	}
	buf := make([]byte, 4096)
	var tag [TagSize]byte
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewMAC(&otk)
		m.Update(buf)
		m.Sum(tag[:])
	}
}
