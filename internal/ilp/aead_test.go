package ilp

import (
	"bytes"
	"testing"

	"repro/internal/cipher"
)

func testAEADKey() (cipher.Key, [cipher.NonceSize]byte) {
	return cipher.ExpandKey(0xDEADBEEF), [cipher.NonceSize]byte{9, 8, 7, 6, 5, 4, 3, 2, 1}
}

func newTagMAC(key *cipher.Key, nonce *[cipher.NonceSize]byte, ctr uint32) cipher.MAC {
	var otk [cipher.KeySize]byte
	cipher.TagKey(key, nonce, ctr, &otk)
	return cipher.NewMAC(&otk)
}

// Fused and staged paths must produce identical ciphertext and tags at
// every offset/length combination, including tails and intra-block
// starts.
func TestFusedEncryptMatchesStaged(t *testing.T) {
	key, nonce := testAEADKey()
	src := make([]byte, 700)
	for i := range src {
		src[i] = byte(i * 131)
	}
	for _, off := range []int{0, 8, 56, 64, 72, 128, 1024} {
		for _, n := range []int{0, 1, 7, 8, 15, 63, 64, 65, 128, 255, 700} {
			fdst := make([]byte, n)
			sdst := make([]byte, n)
			fmac := newTagMAC(&key, &nonce, 0x40000000)
			smac := newTagMAC(&key, &nonce, 0x40000000)
			FusedEncryptCopyMAC(fdst, src[:n], &key, &nonce, off, &fmac)
			StagedEncryptCopyMAC(sdst, src[:n], &key, &nonce, off, &smac)
			if !bytes.Equal(fdst, sdst) {
				t.Fatalf("off=%d n=%d: ciphertext mismatch", off, n)
			}
			var ftag, stag [cipher.TagSize]byte
			fmac.Sum(ftag[:])
			smac.Sum(stag[:])
			if ftag != stag {
				t.Fatalf("off=%d n=%d: tag mismatch", off, n)
			}
		}
	}
}

// Encrypt→decrypt round trip with tag verification, at fragment-like
// offsets; corrupting any byte of the ciphertext must fail the verify.
func TestFusedDecryptVerifyRoundTrip(t *testing.T) {
	key, nonce := testAEADKey()
	pt := make([]byte, 333)
	for i := range pt {
		pt[i] = byte(i ^ 0x5A)
	}
	for _, off := range []int{0, 8, 64, 120} {
		ct := make([]byte, len(pt))
		emac := newTagMAC(&key, &nonce, 0x40000000+uint32(off/8))
		FusedEncryptCopyMAC(ct, pt, &key, &nonce, off, &emac)
		var tag [cipher.TagSize]byte
		emac.Sum(tag[:])

		got := make([]byte, len(pt))
		dmac := newTagMAC(&key, &nonce, 0x40000000+uint32(off/8))
		FusedDecryptCopyVerify(got, ct, &key, &nonce, off, &dmac)
		if !dmac.Verify(tag[:]) {
			t.Fatalf("off=%d: tag rejected on clean ciphertext", off)
		}
		if !bytes.Equal(got, pt) {
			t.Fatalf("off=%d: plaintext mismatch", off)
		}

		// One flipped ciphertext byte must fail verification.
		ct[len(ct)/2] ^= 0x10
		bmac := newTagMAC(&key, &nonce, 0x40000000+uint32(off/8))
		FusedDecryptCopyVerify(got, ct, &key, &nonce, off, &bmac)
		if bmac.Verify(tag[:]) {
			t.Fatalf("off=%d: tag accepted corrupted ciphertext", off)
		}
	}
}

// A nil MAC degrades the kernels to pure seekable encrypt/decrypt —
// the pre-authenticated FEC reconstruction path.
func TestFusedNilMAC(t *testing.T) {
	key, nonce := testAEADKey()
	pt := []byte("fragment reconstructed from parity, already authenticated")
	ct := make([]byte, len(pt))
	FusedEncryptCopyMAC(ct, pt, &key, &nonce, 8, nil)
	want := make([]byte, len(pt))
	cipher.XORKeyStream(&key, &nonce, 8, want, pt)
	if !bytes.Equal(ct, want) {
		t.Fatal("nil-MAC encrypt differs from XORKeyStream")
	}
	back := make([]byte, len(pt))
	FusedDecryptCopyVerify(back, ct, &key, &nonce, 8, nil)
	if !bytes.Equal(back, pt) {
		t.Fatal("nil-MAC decrypt did not round-trip")
	}
}

func TestAEADKernelAlignmentPanics(t *testing.T) {
	key, nonce := testAEADKey()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unaligned offset")
		}
	}()
	FusedEncryptCopyMAC(make([]byte, 8), make([]byte, 8), &key, &nonce, 3, nil)
}

// FuzzFusedDecryptCopyVerify cross-checks the fused one-pass kernel
// against the staged layered path on random payloads, offsets, and
// corruption, on every keystream kernel the CPU has: both must agree on
// plaintext, tag, and accept/reject.
func FuzzFusedDecryptCopyVerify(f *testing.F) {
	f.Add([]byte("seed payload"), uint16(0), uint64(1), false)
	f.Add(make([]byte, 200), uint16(64), uint64(0xABCDEF), true)
	f.Add([]byte{1}, uint16(8), uint64(42), false)
	f.Fuzz(func(t *testing.T, data []byte, off16 uint16, seed uint64, corrupt bool) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		off := int(off16) &^ 7 // 8-byte aligned, 0..65528
		key := cipher.ExpandKey(seed)
		var nonce [cipher.NonceSize]byte
		nonce[0] = byte(seed >> 56)
		nonce[11] = byte(seed)

		eachKernel(t, func(t *testing.T) {
			// Encrypt with the fused kernel, tag it.
			ct := make([]byte, len(data))
			emac := newTagMAC(&key, &nonce, 0x40000000+uint32(off/8))
			FusedEncryptCopyMAC(ct, data, &key, &nonce, off, &emac)
			var tag [cipher.TagSize]byte
			emac.Sum(tag[:])

			// Staged encrypt must agree byte-for-byte.
			sct := make([]byte, len(data))
			smac := newTagMAC(&key, &nonce, 0x40000000+uint32(off/8))
			StagedEncryptCopyMAC(sct, data, &key, &nonce, off, &smac)
			if !bytes.Equal(ct, sct) {
				t.Fatal("fused and staged ciphertext differ")
			}
			if !smac.Verify(tag[:]) {
				t.Fatal("fused and staged tags differ")
			}

			if corrupt && len(ct) > 0 {
				ct[int(seed)%len(ct)] ^= byte(seed>>8) | 1
			}

			// Decrypt both ways; they must agree with each other and with
			// the ground truth on both plaintext and verification verdict.
			fpt := make([]byte, len(ct))
			fmac := newTagMAC(&key, &nonce, 0x40000000+uint32(off/8))
			FusedDecryptCopyVerify(fpt, ct, &key, &nonce, off, &fmac)
			fok := fmac.Verify(tag[:])

			spt := make([]byte, len(ct))
			dmac := newTagMAC(&key, &nonce, 0x40000000+uint32(off/8))
			StagedDecryptCopyVerify(spt, ct, &key, &nonce, off, &dmac)
			sok := dmac.Verify(tag[:])

			if fok != sok {
				t.Fatalf("verify verdicts differ: fused=%v staged=%v", fok, sok)
			}
			if !bytes.Equal(fpt, spt) {
				t.Fatal("fused and staged plaintext differ")
			}
			wantOK := !corrupt || len(ct) == 0
			if fok != wantOK {
				t.Fatalf("verify=%v, want %v (corrupt=%v)", fok, wantOK, corrupt)
			}
			if wantOK && !bytes.Equal(fpt, data) {
				t.Fatal("plaintext does not round-trip")
			}
		})
	})
}

// StagedEncryptCopyMAC performs the same transformation as
// FusedEncryptCopyMAC the way a layered stack does: one full pass to
// copy the plaintext across the layer boundary, one full pass to
// encrypt it in place, one full pass to MAC the ciphertext: the
// reference the fused kernel is held to.
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
