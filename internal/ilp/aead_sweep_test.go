package ilp

import (
	"bytes"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/cipher"
)

// The AEAD kernels against the primitives they are made of: one
// keystream built by scalar cipher.Block, one Poly1305 fed by
// MAC.Update, and nothing else. Whatever a kernel does inside — sixteen
// blocks from one assembly call, two blocks folded per step, a head that
// starts mid-block, a tail that ends mid-lane — the ciphertext is src
// XOR that keystream and the tag is that MAC over the ciphertext.

// cipherKernel is internal/cipher's pick of keystream kernel (3 AVX-512
// with IFMA, 2 AVX-512, 1 AVX2, 0 Block and MAC.Update), reached by its symbol so that these
// tests run every kernel the CPU has without the package exporting a
// switch. It holds the best of them whenever no test has it.
//
//go:linkname cipherKernel repro/internal/cipher.kernel
var cipherKernel int

// eachKernel runs f once per keystream kernel, best first, as
// internal/cipher's own tests do; a kernel this CPU or build lacks is
// skipped, and the skip says why.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	names := [...]string{"scalar", "avx2", "avx512", "avx512ifma"}
	have := cipherKernel
	for k := len(names) - 1; k >= 0; k-- {
		t.Run(names[k], func(t *testing.T) {
			if k > have {
				t.Skipf("no %s kernel here: the best this CPU and build have is %s", names[k], names[have])
			}
			cipherKernel = k
			t.Cleanup(func() { cipherKernel = have })
			f(t)
		})
	}
}

const (
	sweepMaxOff = 4096
	sweepMaxLen = 1100
)

// sweepStream is keystream bytes [0, sweepMaxOff+sweepMaxLen) of the
// payload stream (block counters 1, 2, …), one scalar Block at a time.
func sweepStream(key *cipher.Key, nonce *[cipher.NonceSize]byte) []byte {
	blocks := (sweepMaxOff+sweepMaxLen)/cipher.BlockSize + 1
	ks := make([]byte, blocks*cipher.BlockSize)
	for b := 0; b < blocks; b++ {
		cipher.Block(key, nonce, uint32(1+b), (*[cipher.BlockSize]byte)(ks[b*cipher.BlockSize:]))
	}
	return ks
}

// TestAEADKernelSweep drives FusedEncryptCopyMAC, FusedDecryptCopyVerify
// (each with a MAC and with nil) and XORKeyStream over every 8-aligned
// offset 0 … 4096 and every length 0 … 1100, so every intra-block start,
// every tail and the benchmark's own geometry (off = k·1008 with len
// 1008, off = 8064 mod 4096 with len 128) are hit exactly. The buffers'
// placement rotates with (off, len): disjoint, in place, and disjoint at
// odd addresses. It runs on every kernel the CPU has.
func TestAEADKernelSweep(t *testing.T) {
	key, nonce := testAEADKey()
	ks := sweepStream(&key, &nonce)
	var otk [cipher.KeySize]byte
	cipher.TagKey(&key, &nonce, 0x40000000, &otk)

	pt := make([]byte, sweepMaxLen)
	for i := range pt {
		pt[i] = byte(i*89 + i>>8)
	}
	ct := make([]byte, sweepMaxLen) // pt XOR ks[off:], rebuilt per offset
	bufA := make([]byte, sweepMaxLen+16)
	bufB := make([]byte, sweepMaxLen+16)

	eachKernel(t, func(t *testing.T) {
		for off := 0; off <= sweepMaxOff; off += 8 {
			for i := range ct {
				ct[i] = pt[i] ^ ks[off+i]
			}
			// run absorbs ct one byte per length step, so a copy of it is
			// the reference MAC over ct[:n] without redoing the prefix.
			run := cipher.NewMAC(&otk)
			for n := 0; n <= sweepMaxLen; n++ {
				if n > 0 {
					run.Update(ct[n-1 : n])
				}
				ref := run
				var want [cipher.TagSize]byte
				ref.Sum(want[:])

				// place returns dst and a src holding in, by the rotation.
				place := func(in []byte) (dst, src []byte) {
					switch (off/8 + n) % 3 {
					case 0: // disjoint, 8-aligned as allocated
						src = bufA[:n]
						dst = bufB[:n]
					case 1: // in place
						src = bufA[:n]
						dst = src
					default: // disjoint, odd addresses, different phases
						src = bufA[1 : 1+n]
						dst = bufB[3 : 3+n]
					}
					copy(src, in)
					return dst, src
				}
				check := func(what string, got, wantBytes []byte, mac *cipher.MAC) {
					if !bytes.Equal(got, wantBytes) {
						t.Fatalf("%s off=%d n=%d: output differs from Block keystream XOR", what, off, n)
					}
					if mac != nil && !mac.Verify(want[:]) {
						t.Fatalf("%s off=%d n=%d: tag differs from MAC.Update over the ciphertext", what, off, n)
					}
				}

				dst, src := place(pt[:n])
				mac := cipher.NewMAC(&otk)
				if got := FusedEncryptCopyMAC(dst, src, &key, &nonce, off, &mac); got != n {
					t.Fatalf("encrypt off=%d n=%d: returned %d", off, n, got)
				}
				check("encrypt", dst, ct[:n], &mac)

				dst, src = place(ct[:n])
				mac = cipher.NewMAC(&otk)
				if got := FusedDecryptCopyVerify(dst, src, &key, &nonce, off, &mac); got != n {
					t.Fatalf("decrypt off=%d n=%d: returned %d", off, n, got)
				}
				check("decrypt", dst, pt[:n], &mac)

				dst, src = place(pt[:n])
				FusedEncryptCopyMAC(dst, src, &key, &nonce, off, nil)
				check("encrypt nil-MAC", dst, ct[:n], nil)

				dst, src = place(ct[:n])
				FusedDecryptCopyVerify(dst, src, &key, &nonce, off, nil)
				check("decrypt nil-MAC", dst, pt[:n], nil)

				dst, src = place(pt[:n])
				cipher.XORKeyStream(&key, &nonce, off, dst, src)
				check("XORKeyStream", dst, ct[:n], nil)
			}
		}
	})
}

// A MAC that is not at a 16-byte boundary when the kernel starts (the
// caller absorbed a header first) must still come out as Update would
// have left it: the kernel cannot fold whole blocks into it, and every
// byte goes through MAC.Update instead.
func TestAEADKernelUnalignedMAC(t *testing.T) {
	key, nonce := testAEADKey()
	ks := sweepStream(&key, &nonce)
	var otk [cipher.KeySize]byte
	cipher.TagKey(&key, &nonce, 0x40000000, &otk)
	hdr := []byte("hdr..")
	pt := make([]byte, 1008)
	for i := range pt {
		pt[i] = byte(i * 5)
	}
	for _, off := range []int{0, 48, 1008} {
		ct := make([]byte, len(pt))
		for i := range ct {
			ct[i] = pt[i] ^ ks[off+i]
		}
		ref := cipher.NewMAC(&otk)
		ref.Update(hdr)
		ref.Update(ct)
		var want [cipher.TagSize]byte
		ref.Sum(want[:])

		got := make([]byte, len(pt))
		mac := cipher.NewMAC(&otk)
		mac.Update(hdr)
		FusedEncryptCopyMAC(got, pt, &key, &nonce, off, &mac)
		if !bytes.Equal(got, ct) || !mac.Verify(want[:]) {
			t.Fatalf("encrypt off=%d after a %d-byte header: wrong ciphertext or tag", off, len(hdr))
		}
		mac = cipher.NewMAC(&otk)
		mac.Update(hdr)
		FusedDecryptCopyVerify(got, ct, &key, &nonce, off, &mac)
		if !bytes.Equal(got, pt) || !mac.Verify(want[:]) {
			t.Fatalf("decrypt off=%d after a %d-byte header: wrong plaintext or tag", off, len(hdr))
		}
	}
}

// Fail closed at the benchmark's geometry: a fragment of 1008 bytes at
// off = k·1008 (and the 128-byte last one) sealed by the fused kernel
// opens only as it was sealed. One flipped bit anywhere in the
// ciphertext or the tag, a fragment cut short by one byte or by a whole
// keystream lane, and a tag made for another offset are all refused.
func TestAEADKernelFailsClosed(t *testing.T) {
	key, nonce := testAEADKey()
	pt := make([]byte, 1008)
	for i := range pt {
		pt[i] = byte(i*3 + 1)
	}
	open := func(ct []byte, off int, tag []byte) bool {
		mac := newTagMAC(&key, &nonce, 0x40000000+uint32(off/8))
		FusedDecryptCopyVerify(make([]byte, len(ct)), ct, &key, &nonce, off, &mac)
		return mac.Verify(tag)
	}
	for k := 0; k <= 8; k++ {
		off, n := k*1008, 1008
		if k == 8 {
			n = 128
		}
		ct := make([]byte, n)
		mac := newTagMAC(&key, &nonce, 0x40000000+uint32(off/8))
		FusedEncryptCopyMAC(ct, pt[:n], &key, &nonce, off, &mac)
		var tag [cipher.TagSize]byte
		mac.Sum(tag[:])
		if !open(ct, off, tag[:]) {
			t.Fatalf("k=%d: clean fragment refused", k)
		}
		for _, i := range []int{0, 15, 16, 63, 64, n / 2, n - 17, n - 1} {
			ct[i] ^= 0x04
			if open(ct, off, tag[:]) {
				t.Fatalf("k=%d: accepted ciphertext with byte %d flipped", k, i)
			}
			ct[i] ^= 0x04
		}
		for i := range tag {
			tag[i] ^= 0x80
			if open(ct, off, tag[:]) {
				t.Fatalf("k=%d: accepted tag with byte %d flipped", k, i)
			}
			tag[i] ^= 0x80
		}
		for _, cut := range []int{1, 16, 64, n - 1, n} {
			if open(ct[:n-cut], off, tag[:]) {
				t.Fatalf("k=%d: accepted fragment truncated by %d bytes", k, cut)
			}
		}
		if open(ct, off+8, tag[:]) {
			t.Fatalf("k=%d: accepted fragment at the wrong offset", k)
		}
	}
}
