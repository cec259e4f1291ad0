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
		keystream(&key, &nonce, seq(uint32(i)), 0, ks[:], zeros[:], Lanes, nil, nil, nil)
	}
}

// BenchmarkKeystreamMAC is the same call folding 0, 8, 63, 64 and 80
// Poly1305 blocks on the side, on each kernel this CPU has: 63 is a
// 1 008-byte fragment's call, 64 a whole 1 KiB chunk's, 8 a short last
// one's, 80 the most a call folds. Each count's time less /0's, against
// as many blocks through MAC.block (BenchmarkPoly1305_4KB / 4 per 64),
// is how much of the MAC the keystream hides.
func BenchmarkKeystreamMAC(b *testing.B) {
	key := ExpandKey(1)
	var nonce [NonceSize]byte
	var otk [KeySize]byte
	msg := make([]byte, foldMax*TagSize)
	have := kernel
	for k := have; k >= scalar; k-- {
		for _, nblk := range []int{0, 8, 63, 64, 80} {
			b.Run(kernelNames[k]+"/"+strconv.Itoa(nblk), func(b *testing.B) {
				kernel = k
				defer func() { kernel = have }()
				mac := NewMAC(&otk)
				var ks [wideSize]byte
				b.SetBytes(wideSize)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					keystream(&key, &nonce, &laneRow, uint32(i), ks[:], ks[:], Lanes, nil, &mac, msg[:nblk*TagSize])
				}
			})
		}
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
