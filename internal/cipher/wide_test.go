package cipher

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// bothPaths runs f with the wide kernel as detected and with it forced
// off. On a build or a machine without the kernel the two are the same
// scalar path, and the "wide" run says so.
func bothPaths(t *testing.T, f func(t *testing.T)) {
	t.Run("wide", func(t *testing.T) {
		if !haveWide {
			t.Log("no wide kernel here: this run is the scalar path again")
		}
		f(t)
	})
	t.Run("scalar", func(t *testing.T) {
		forceScalar(t)
		f(t)
	})
}

// blockStream is keystream blocks ctr, ctr+1, … (wrapping), n bytes of
// them, one scalar Block at a time: the oracle.
func blockStream(key *Key, nonce *[NonceSize]byte, ctr uint32, n int) []byte {
	ks := make([]byte, (n+BlockSize-1)/BlockSize*BlockSize)
	for b := 0; b*BlockSize < len(ks); b++ {
		Block(key, nonce, ctr+uint32(b), (*[BlockSize]byte)(ks[b*BlockSize:]))
	}
	return ks[:n]
}

// Every lane of the wide call is the Block of its own counter: at every
// alignment of the first counter, for every lane count, and where the
// 32-bit counter wraps inside the call (0xfffffffb puts the wrap
// between lanes 4 and 5).
func TestKeystreamWideMatchesBlock(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		key := ExpandKey(0x5EED)
		nonce := [NonceSize]byte{0xA0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0xAF}
		ctrs := []uint32{0x40000000, 0x7fffffff, 0x80000000 - 4}
		for a := uint32(0); a <= 16; a++ {
			ctrs = append(ctrs, a, 0xfffffff0+a)
		}
		for _, ctr := range ctrs {
			for nb := 0; nb <= wideBlocks; nb++ {
				var ks [wideSize]byte
				keystream(&key, &nonce, ctr, &ks, nb)
				want := blockStream(&key, &nonce, ctr, nb*BlockSize)
				for lane := 0; lane < nb; lane++ {
					if !bytes.Equal(ks[lane*BlockSize:(lane+1)*BlockSize], want[lane*BlockSize:(lane+1)*BlockSize]) {
						t.Fatalf("ctr=%#x nb=%d: lane %d is not Block(ctr+%d)", ctr, nb, lane, lane)
					}
				}
			}
		}
	})
}

// The RFC 8439 vectors, built from what keystream returns so that the
// kernel — which the public entry points only reach from three blocks
// up, more than any RFC message has — is what produces them.
func TestRFC8439VectorsFromKeystream(t *testing.T) {
	sunscreen := []byte("Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.")
	bothPaths(t, func(t *testing.T) {
		// §2.3.2: the block at counter 1, in every lane in turn.
		key := keyFrom(t, `00:01:02:03:04:05:06:07:08:09:0a:0b:0c:0d:0e:0f:10:11:12:13:14:15:16:17:18:19:1a:1b:1c:1d:1e:1f`)
		nonce := nonceFrom(t, `00:00:00:09:00:00:00:4a:00:00:00:00`)
		wantBlock := unhex(t, `
			10 f1 e7 e4 d1 3b 59 15 50 0f dd 1f a3 20 71 c4
			c7 d1 f4 c7 33 c0 68 03 04 22 aa 9a c3 d4 6c 4e
			d2 82 64 46 07 9f aa 09 14 c2 d7 05 d9 8b 02 a2
			b5 12 9c d1 de 16 4e b9 cb d0 83 e8 a2 50 3c 4e`)
		var ks [wideSize]byte
		for lane := 0; lane < wideBlocks; lane++ {
			keystream(&key, &nonce, 1-uint32(lane), &ks, wideBlocks)
			if !bytes.Equal(ks[lane*BlockSize:(lane+1)*BlockSize], wantBlock) {
				t.Fatalf("§2.3.2: lane %d of the call at counter %#x is not the RFC block", lane, 1-uint32(lane))
			}
		}

		// §2.4.2: the sunscreen message under the stream from counter 1,
		// reached through 384 bytes that come before it in a stream
		// whose counter wraps on the way there.
		nonce = nonceFrom(t, `00:00:00:00:00:00:00:4a:00:00:00:00`)
		wantCT := unhex(t, `
			6e 2e 35 9a 25 68 f9 80 41 ba 07 28 dd 0d 69 81
			e9 7e 7a ec 1d 43 60 c2 0a 27 af cc fd 9f ae 0b
			f9 1b 65 c5 52 47 33 ab 8f 59 3d ab cd 62 b3 57
			16 39 d6 24 e6 51 52 ab 8f 53 0c 35 9f 08 61 d8
			07 ca 0d bf 50 0d 6a 61 56 a3 8e 08 8a 22 b6 5e
			52 bc 51 4d 16 cc f8 06 81 8c e9 1a b7 79 37 36
			5a f9 0b bf 74 a3 5b e6 b4 0b 8e ed f2 78 5e 42
			87 4d`)
		const lead = 6 * BlockSize
		msg := append(make([]byte, lead), sunscreen...)
		xorWide(&key, &nonce, 0xfffffffb, 0, msg, msg, nil, false)
		if !bytes.Equal(msg[lead:], wantCT) {
			t.Fatalf("§2.4.2: ciphertext mismatch:\n got %x\nwant %x", msg[lead:], wantCT)
		}
		// And through the front door, as the head of a longer message.
		long := append(append([]byte(nil), sunscreen...), make([]byte, wideSize)...)
		XORKeyStream(&key, &nonce, 0, long, long)
		if !bytes.Equal(long[:len(sunscreen)], wantCT) {
			t.Fatal("§2.4.2: XORKeyStream of a longer message does not start with the RFC ciphertext")
		}

		// §2.8.2: one call at counter 0 holds the one-time key (lane 0)
		// and the message keystream (lanes 1, 2).
		key = keyFrom(t, `80 81 82 83 84 85 86 87 88 89 8a 8b 8c 8d 8e 8f 90 91 92 93 94 95 96 97 98 99 9a 9b 9c 9d 9e 9f`)
		nonce = nonceFrom(t, `07 00 00 00 40 41 42 43 44 45 46 47`)
		aad := unhex(t, `50 51 52 53 c0 c1 c2 c3 c4 c5 c6 c7`)
		wantBox := Seal(nil, &key, &nonce, sunscreen, aad) // pinned to the RFC by TestRFC8439AEADVector
		wantTag := unhex(t, `1a:e1:0b:59:4f:09:e2:6a:7e:90:2e:cb:d0:60:06:91`)
		if !bytes.Equal(wantBox[len(sunscreen):], wantTag) {
			t.Fatal("§2.8.2: Seal does not produce the RFC tag")
		}
		keystream(&key, &nonce, 0, &ks, wideBlocks)
		ct := make([]byte, len(sunscreen))
		for i := range ct {
			ct[i] = sunscreen[i] ^ ks[BlockSize+i]
		}
		mac := NewMAC((*[KeySize]byte)(ks[:KeySize]))
		macPadded(&mac, aad)
		macPadded(&mac, ct)
		var lens [16]byte
		binary.LittleEndian.PutUint64(lens[0:8], uint64(len(aad)))
		binary.LittleEndian.PutUint64(lens[8:16], uint64(len(ct)))
		mac.Update(lens[:])
		if !bytes.Equal(ct, wantBox[:len(ct)]) || !mac.Verify(wantTag) {
			t.Fatal("§2.8.2: the AEAD built from one wide call is not the RFC's")
		}
	})
}

// XORKeyStream and FusedXORMAC, each against Block and MAC.Update, at
// every byte offset of the first two blocks and every length up to a
// fragment and a lane more, on both paths.
func TestWideLoopsMatchBlock(t *testing.T) {
	key := ExpandKey(0xFACADE)
	nonce := [NonceSize]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 9}
	var otk [KeySize]byte
	TagKey(&key, &nonce, 1<<30, &otk)
	const maxLen = 1100
	src := make([]byte, maxLen)
	for i := range src {
		src[i] = byte(i*7 + i>>7)
	}
	bothPaths(t, func(t *testing.T) {
		dst := make([]byte, maxLen)
		for off := 0; off < 2*BlockSize; off++ {
			ks := blockStream(&key, &nonce, 1, off+maxLen)[off:]
			for n := 0; n <= maxLen; n++ {
				if got := XORKeyStream(&key, &nonce, off, dst[:n], src[:n]); got != n {
					t.Fatalf("XORKeyStream off=%d n=%d: returned %d", off, n, got)
				}
				for i := 0; i < n; i++ {
					if dst[i] != src[i]^ks[i] {
						t.Fatalf("XORKeyStream off=%d n=%d: byte %d is not src XOR Block keystream", off, n, i)
					}
				}
			}
		}
		// FusedXORMAC starts on a block boundary and says how far it
		// got; whatever prefix that is must be right, and must include
		// every whole block.
		for _, ctr := range []uint32{1, 17, 0xfffffffb} {
			ks := blockStream(&key, &nonce, ctr, maxLen)
			ct := make([]byte, maxLen)
			for i := range ct {
				ct[i] = src[i] ^ ks[i]
			}
			for n := 0; n <= maxLen; n++ {
				for _, enc := range []bool{true, false} {
					in, out := src, ct
					if !enc {
						in, out = ct, src
					}
					mac := NewMAC(&otk)
					p := FusedXORMAC(&key, &nonce, ctr, dst[:n], in[:n], &mac, enc)
					if p < n/BlockSize*BlockSize || p > n {
						t.Fatalf("FusedXORMAC ctr=%#x n=%d enc=%v: processed %d", ctr, n, enc, p)
					}
					ref := NewMAC(&otk)
					ref.Update(ct[:p])
					var want [TagSize]byte
					ref.Sum(want[:])
					if !bytes.Equal(dst[:p], out[:p]) || !mac.Verify(want[:]) {
						t.Fatalf("FusedXORMAC ctr=%#x n=%d enc=%v: wrong output or tag over its %d bytes", ctr, n, enc, p)
					}
				}
			}
		}
	})
}

// FuzzKeystreamWide holds the wide loops against scalar Block over any
// key, nonce, first counter, byte offset, length and split point: the
// stream XORed in two calls must be the stream XORed in one, and both
// src XOR the Block keystream; with a MAC the loop must leave that
// ciphertext and the MAC.Update tag over it, sealing and opening.
func FuzzKeystreamWide(f *testing.F) {
	f.Add([]byte("key"), []byte("nonce"), uint32(1), uint16(0), uint16(1008), uint16(16))
	f.Add([]byte{}, []byte{}, uint32(0xfffffffb), uint16(48), uint16(1008), uint16(500))
	f.Add(bytes.Repeat([]byte{0xff}, KeySize), bytes.Repeat([]byte{0xff}, NonceSize), uint32(1<<30), uint16(63), uint16(4096), uint16(4095))
	f.Fuzz(func(t *testing.T, keyBytes, nonceBytes []byte, ctr uint32, off, length, split uint16) {
		var kb [KeySize]byte
		copy(kb[:], keyBytes)
		key := NewKey(&kb)
		var nonce [NonceSize]byte
		copy(nonce[:], nonceBytes)
		skip := int(off) % BlockSize
		n := int(length) % 4200
		cut := 0
		if n > 0 {
			cut = int(split) % n
		}
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i) ^ kb[i%KeySize]
		}
		ks := blockStream(&key, &nonce, ctr, skip+n)[skip:]
		want := make([]byte, n)
		for i := range want {
			want[i] = src[i] ^ ks[i]
		}

		one := make([]byte, n)
		xorWide(&key, &nonce, ctr, skip, one, src, nil, false)
		if !bytes.Equal(one, want) {
			t.Fatal("one call: not src XOR Block keystream")
		}
		two := make([]byte, n)
		xorWide(&key, &nonce, ctr, skip, two[:cut], src[:cut], nil, false)
		at := skip + cut
		xorWide(&key, &nonce, ctr+uint32(at/BlockSize), at%BlockSize, two[cut:], src[cut:], nil, false)
		if !bytes.Equal(two, want) {
			t.Fatalf("split at %d: not src XOR Block keystream", cut)
		}

		// With a MAC, sealing and then opening in place: the tag is
		// MAC.Update's over the ciphertext both times.
		var otk [KeySize]byte
		copy(otk[:], ks) // any 32 bytes will do for r and s
		ref := NewMAC(&otk)
		ref.Update(want)
		var tag [TagSize]byte
		ref.Sum(tag[:])
		seal, open := NewMAC(&otk), NewMAC(&otk)
		xorWide(&key, &nonce, ctr, skip, one, src, &seal, true)
		if !bytes.Equal(one, want) || !seal.Verify(tag[:]) {
			t.Fatal("seal: wrong ciphertext or tag")
		}
		xorWide(&key, &nonce, ctr, skip, one, one, &open, false)
		if !bytes.Equal(one, src) || !open.Verify(tag[:]) {
			t.Fatal("open in place: wrong plaintext or tag")
		}
	})
}
