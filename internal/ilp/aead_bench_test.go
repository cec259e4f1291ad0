package ilp

import (
	"fmt"
	"testing"

	"repro/internal/cipher"
)

// The fused-vs-staged AEAD comparison across payload sizes — the §6
// measurement with a real cipher. The repository benchmark's ladder
// (benchmark/README.md) times the same kernels on the wall clock.

var aeadBenchSizes = []int{256, 1024, 4096, 16384}

func benchFusedAEAD(b *testing.B, n int, fused bool) {
	key, nonce := benchAEADKey()
	src := make([]byte, n)
	dst := make([]byte, n)
	for i := range src {
		src[i] = byte(i)
	}
	var tag [cipher.TagSize]byte
	b.SetBytes(int64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mac := newTagMAC(&key, &nonce, 0x40000000)
		if fused {
			FusedEncryptCopyMAC(dst, src, &key, &nonce, 0, &mac)
		} else {
			StagedEncryptCopyMAC(dst, src, &key, &nonce, 0, &mac)
		}
		mac.Sum(tag[:])
	}
}

func benchAEADKey() (cipher.Key, [cipher.NonceSize]byte) {
	return cipher.ExpandKey(0xBEEF), [cipher.NonceSize]byte{1, 2, 3}
}

func BenchmarkFusedAEAD(b *testing.B) {
	for _, n := range aeadBenchSizes {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) { benchFusedAEAD(b, n, true) })
	}
}

func BenchmarkStagedAEAD(b *testing.B) {
	for _, n := range aeadBenchSizes {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) { benchFusedAEAD(b, n, false) })
	}
}

func BenchmarkFusedAEADDecrypt(b *testing.B) {
	key, nonce := benchAEADKey()
	const n = 1024
	src := make([]byte, n)
	dst := make([]byte, n)
	var tag [cipher.TagSize]byte
	b.SetBytes(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mac := newTagMAC(&key, &nonce, 0x40000000)
		FusedDecryptCopyVerify(dst, src, &key, &nonce, 0, &mac)
		mac.Sum(tag[:])
	}
}
