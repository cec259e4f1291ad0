package cipher

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"testing"
	"unsafe"
)

// kernelNames names the keystream kernels in subtests and logs.
var kernelNames = [...]string{scalar: "scalar", avx2: "avx2", avx512: "avx512", avx512ifma: "avx512ifma"}

// eachKernel runs f once per keystream kernel, best first — AVX-512
// with the IFMA fold, AVX-512 with the pair fold, AVX2, then Block with
// MAC.Update — with keystream held to it, so one machine tests every
// kernel it has against the same oracle. A kernel this CPU or build
// lacks is skipped, and the skip says why: a runner without AVX-512
// reports its avx512 runs as skipped, not as passed.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	have := detect()
	for k := avx512ifma; k >= scalar; k-- {
		t.Run(kernelNames[k], func(t *testing.T) {
			if k > have {
				t.Skipf("no %s kernel here: the best this CPU and build have is %s", kernelNames[k], kernelNames[have])
			}
			old := kernel
			kernel = k
			t.Cleanup(func() { kernel = old })
			f(t)
		})
	}
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

// seq is the counter row the payload passes: ctr, ctr+1, … (wrapping).
func seq(ctr uint32) *[Lanes]uint32 {
	var ctrs [Lanes]uint32
	for b := range ctrs {
		ctrs[b] = ctr + uint32(b)
	}
	return &ctrs
}

// Every lane of a Blocks call is the Block of its own counter, whatever
// the counters are: a row taken in any order, with repeats, with both
// sides of the 32-bit wrap (0xffffffff and 0) in one call, and rows as
// core makes them (tag keys at 2^30 + off/8 beside heads at 1 + off/64),
// for every lane count n from 0 to Lanes. A lane's counter taken from the
// wrong place in the row, or one lane's block written to another's
// place, fails here.
func TestBlocksMatchBlock(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		key := ExpandKey(0xB10C5)
		nonce := [NonceSize]byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xAA, 0xBB, 0xCC}
		rows := [][Lanes]uint32{
			{0xffffffff, 0, 7, 7, 1 << 30, 0x80000000, 3, 0xffffffff, 9, 0, 0xfffffffe, 1 << 31, 2, 7, 0xffffffff, 1},
			{1<<30 + 0, 1<<30 + 126, 17, 1<<30 + 252, 32, 1<<30 + 378, 48, 1<<30 + 504,
				1<<30 + 630, 80, 1<<30 + 756, 96, 1<<30 + 882, 112, 1<<30 + 1008, 127},
			{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5},
			{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
			{15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
			{0x9E3779B9, 0x7F4A7C15, 0xF39CC060, 0x5CEDC834, 0x1082276B, 0xF3A27251, 0xF86C6A11, 0x6D0E0D5A,
				0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344, 0xA4093822, 0x299F31D0, 0x082EFA98, 0xEC4E6C89},
		}
		for _, row := range rows {
			for n := 0; n <= Lanes; n++ {
				var out [Lanes * BlockSize]byte
				ctrs := row
				Blocks(&key, &nonce, &ctrs, n, &out)
				if ctrs != row {
					t.Fatalf("counters %#x: Blocks changed its row to %#x", row, ctrs)
				}
				for i := 0; i < n; i++ {
					var want [BlockSize]byte
					Block(&key, &nonce, row[i], &want)
					if !bytes.Equal(out[i*BlockSize:(i+1)*BlockSize], want[:]) {
						t.Fatalf("counters %#x, n=%d: lane %d is not Block(%#x)", row, n, i, row[i])
					}
				}
			}
		}
	})
}

// The kernels read a Key's eight words, the nonce's twelve bytes and a
// row of counters by address (wide_amd64.s): a Key that grew a
// field before its words, or words of another size, must fail here and
// not as a wrong keystream.
func TestKeyNonceLayout(t *testing.T) {
	var k Key
	var nonce [NonceSize]byte
	var ctrs [Lanes]uint32
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"Key.k offset", unsafe.Offsetof(k.k), 0},
		{"Key size", unsafe.Sizeof(k), 32},
		{"Key word size", unsafe.Sizeof(k.k[0]), 4},
		{"nonce size", unsafe.Sizeof(nonce), 12},
		{"counter row size", unsafe.Sizeof(ctrs), 64},
	} {
		if f.got != f.want {
			t.Errorf("%s is %d, the kernel reads %d", f.name, f.got, f.want)
		}
	}
}

// Every lane of the wide call is the Block of its own counter: at every
// alignment of the first counter, for every lane count, and where the
// 32-bit counter wraps inside the call, after every lane in turn
// (0xfffffff0 + a wraps after lane 15 - a, which for a = 7 is between
// the AVX2 kernel's two calls).
func TestKeystreamWideMatchesBlock(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		key := ExpandKey(0x5EED)
		nonce := [NonceSize]byte{0xA0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0xAF}
		ctrs := []uint32{0x40000000, 0x7fffffff, 0x80000000 - 4}
		for a := uint32(0); a <= 16; a++ {
			ctrs = append(ctrs, a, 0xfffffff0+a)
		}
		for _, ctr := range ctrs {
			for nb := 0; nb <= Lanes; nb++ {
				var ks [wideSize]byte
				keystream(&key, &nonce, seq(ctr), 0, ks[:], zeros[:], nb, nil, nil, nil)
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
// kernel — which the public entry points only reach from two blocks up,
// and then use a lane or two of — is what produces them, in every lane.
func TestRFC8439VectorsFromKeystream(t *testing.T) {
	sunscreen := []byte("Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.")
	eachKernel(t, func(t *testing.T) {
		// §2.3.2: the block at counter 1, in every lane in turn.
		key := keyFrom(t, `00:01:02:03:04:05:06:07:08:09:0a:0b:0c:0d:0e:0f:10:11:12:13:14:15:16:17:18:19:1a:1b:1c:1d:1e:1f`)
		nonce := nonceFrom(t, `00:00:00:09:00:00:00:4a:00:00:00:00`)
		wantBlock := unhex(t, `
			10 f1 e7 e4 d1 3b 59 15 50 0f dd 1f a3 20 71 c4
			c7 d1 f4 c7 33 c0 68 03 04 22 aa 9a c3 d4 6c 4e
			d2 82 64 46 07 9f aa 09 14 c2 d7 05 d9 8b 02 a2
			b5 12 9c d1 de 16 4e b9 cb d0 83 e8 a2 50 3c 4e`)
		var ks [wideSize]byte
		for lane := 0; lane < Lanes; lane++ {
			keystream(&key, &nonce, seq(1-uint32(lane)), 0, ks[:], zeros[:], Lanes, nil, nil, nil)
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
		xorWide(&key, &nonce, 0xfffffffb, 0, msg, msg, nil, nil, nil, false)
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
		keystream(&key, &nonce, seq(0), 0, ks[:], zeros[:], Lanes, nil, nil, nil)
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

// XORKeyStream, and the loop under it sealing and opening with a MAC,
// against Block and MAC.Update, at every byte offset of the first two
// blocks and every length up to a fragment and a lane more, on every
// kernel.
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
	eachKernel(t, func(t *testing.T) {
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
		// With a MAC, from three first counters — the payload's own, one
		// further on, and one the 32-bit counter wraps from inside the
		// run — sealing src and then opening what was sealed. By turns,
		// the seal is in place and the open is not, or the other way
		// round. The tag is MAC.Update's over the ciphertext both times.
		// At every other offset the head block is handed in, as core hands
		// in a lane of its Blocks call, and not made by the loop.
		buf := make([]byte, maxLen)
		for _, first := range []uint32{1, 17, 0xfffffffb} {
			for off := 0; off < 2*BlockSize; off++ {
				ctr, skip := first+uint32(off/BlockSize), off%BlockSize
				var head *[BlockSize]byte
				if off%2 == 1 {
					head = new([BlockSize]byte)
					Block(&key, &nonce, ctr, head)
				}
				ks := blockStream(&key, &nonce, first, off+maxLen)[off:]
				ct := make([]byte, maxLen)
				for i := range ct {
					ct[i] = src[i] ^ ks[i]
				}
				// run absorbs ct one byte per length step, so a copy of it
				// is the reference MAC over ct[:n].
				run := NewMAC(&otk)
				for n := 0; n <= maxLen; n++ {
					if n > 0 {
						run.Update(ct[n-1 : n])
					}
					ref := run
					var want [TagSize]byte
					ref.Sum(want[:])
					copy(buf, src[:n])
					sealInPlace := (off+n)%2 == 0
					sealed, opened := dst[:n], dst[:n]
					if sealInPlace {
						sealed = buf[:n]
					}
					seal, open := NewMAC(&otk), NewMAC(&otk)
					xorWide(&key, &nonce, ctr, skip, sealed, buf[:n], &seal, nil, head, true)
					if !bytes.Equal(sealed, ct[:n]) || !seal.Verify(want[:]) {
						t.Fatalf("seal ctr=%#x off=%d n=%d in place=%v: wrong ciphertext or tag", first, off, n, sealInPlace)
					}
					xorWide(&key, &nonce, ctr, skip, opened, sealed, &open, nil, head, false)
					if !bytes.Equal(opened, src[:n]) || !open.Verify(want[:]) {
						t.Fatalf("open ctr=%#x off=%d n=%d in place=%v: wrong plaintext or tag", first, off, n, !sealInPlace)
					}
				}
			}
		}
	})
}

// One call's lanes under the kernel contract, against Block: lanes 0
// to nx-1 are src XOR their block in dst and nothing past them is
// written, and lane nx's block, asked for, is the tail; a fold-only
// call, with neither source nor destination, only folds. For
// every nx, with and without a tail, in place and not, at counters that
// wrap inside the call, with lane i at add + i as the payload loop runs
// them and at free counters as Blocks takes them.
func TestKeystreamXORsWholeBlocks(t *testing.T) {
	key := ExpandKey(0x7A11)
	nonce := [NonceSize]byte{4: 0x44, 11: 0xBB}
	src := make([]byte, wideSize)
	for i := range src {
		src[i] = byte(i*29 + 3)
	}
	free := [Lanes]uint32{9, 1 << 30, 0xffffffff, 0, 7, 7, 1<<30 + 126, 2, 0x80000000, 5, 3, 1, 0xfffffffe, 17, 6, 4}
	eachKernel(t, func(t *testing.T) {
		for _, row := range []struct {
			ctrs *[Lanes]uint32
			add  uint32
		}{{&laneRow, 1}, {&laneRow, 0xfffffff8}, {&free, 0}, {&free, 0x10}} {
			for nx := 0; nx <= Lanes; nx++ {
				for _, withTail := range []bool{false, true} {
					if withTail && nx == Lanes {
						continue
					}
					for _, inPlace := range []bool{false, true} {
						dst := bytes.Repeat([]byte{0xA5}, wideSize)
						in := src
						if inPlace {
							copy(dst, src)
							in = dst
						}
						var tail *[BlockSize]byte
						if withTail {
							tail = new([BlockSize]byte)
						}
						keystream(&key, &nonce, row.ctrs, row.add, dst, in, nx, tail, nil, nil)
						for b := 0; b < Lanes; b++ {
							var blk [BlockSize]byte
							Block(&key, &nonce, row.ctrs[b]+row.add, &blk)
							got := dst[b*BlockSize : (b+1)*BlockSize]
							for i := range got {
								want := byte(0xA5)
								switch {
								case b < nx:
									want = src[b*BlockSize+i] ^ blk[i]
								case inPlace:
									want = src[b*BlockSize+i]
								}
								if got[i] != want {
									t.Fatalf("add=%#x nx=%d tail=%v in place=%v: byte %d of lane %d is %#x, want %#x", row.add, nx, withTail, inPlace, i, b, got[i], want)
								}
							}
							if withTail && b == nx && !bytes.Equal(tail[:], blk[:]) {
								t.Fatalf("add=%#x nx=%d in place=%v: the tail is not lane %d's block", row.add, nx, inPlace, nx)
							}
						}
					}
				}
			}
			mac := MAC{r0: 0x0123456709ABCDEF & 0x0FFFFFFC0FFFFFFF, r1: 0x0FEDCBA987654321 & 0x0FFFFFFC0FFFFFFC}
			ref := mac
			foldRef(&ref, src[:foldMin+TagSize])
			keystream(&key, &nonce, row.ctrs, row.add, nil, nil, 0, nil, &mac, src[:foldMin+TagSize])
			if !macMatches(&mac, &ref, foldMin/TagSize+1) {
				t.Fatal("a fold-only call did not fold its message")
			}
		}
	})
}

// The payload loop against the scalar reference at the skips SuiteAEAD
// lays fragments out at, for every length up to two chunks and more:
// the ciphertext is src XOR the Block keystream and the tag MAC.Update's
// over it, sealing and opening, in place and into another buffer. And
// runs of fragments, each at the next offset, sealed through one chain
// with the chain's own MACs, the last flushed: every fragment's tag is
// MAC.Update's over its own ciphertext, however its end was folded.
func TestWideLoopsEveryLength(t *testing.T) {
	key := ExpandKey(0xC0DE)
	nonce := [NonceSize]byte{1, 2, 3}
	const maxLen = 2100
	src := make([]byte, maxLen)
	for i := range src {
		src[i] = byte(i*13 + i>>8)
	}
	var otk [KeySize]byte
	TagKey(&key, &nonce, 1<<30, &otk)
	eachKernel(t, func(t *testing.T) {
		buf, out := make([]byte, maxLen), make([]byte, maxLen)
		for _, skip := range []int{0, 16, 32, 48} {
			ks := blockStream(&key, &nonce, 1, skip+maxLen)[skip:]
			ct := make([]byte, maxLen)
			for i := range ct {
				ct[i] = src[i] ^ ks[i]
			}
			run := NewMAC(&otk)
			for n := 0; n <= maxLen; n++ {
				if n > 0 {
					run.Update(ct[n-1 : n])
				}
				ref := run
				var want [TagSize]byte
				ref.Sum(want[:])
				for _, inPlace := range []bool{false, true} {
					copy(buf, src[:n])
					d := out[:n]
					if inPlace {
						d = buf[:n]
					}
					seal := NewMAC(&otk)
					xorWide(&key, &nonce, 1, skip, d, buf[:n], &seal, nil, nil, true)
					if !bytes.Equal(d, ct[:n]) || !seal.Verify(want[:]) {
						t.Fatalf("seal skip=%d n=%d in place=%v: wrong ciphertext or tag", skip, n, inPlace)
					}
					copy(buf, ct[:n])
					d = out[:n]
					if inPlace {
						d = buf[:n]
					}
					open := NewMAC(&otk)
					xorWide(&key, &nonce, 1, skip, d, buf[:n], &open, nil, nil, false)
					if !bytes.Equal(d, src[:n]) || !open.Verify(want[:]) {
						t.Fatalf("open skip=%d n=%d in place=%v: wrong plaintext or tag", skip, n, inPlace)
					}
				}
			}
		}
		for _, frag := range []int{16, 48, 1008, 1024, 1040, 2064} {
			const frags = 4
			ks := blockStream(&key, &nonce, 1, frags*frag)
			pt := make([]byte, frags*frag)
			for i := range pt {
				pt[i] = byte(i*7 + 1)
			}
			var ch Chain
			ct := make([]byte, frags*frag)
			tags := make([]byte, frags*TagSize)
			for k := 0; k < frags; k++ {
				off := k * frag
				otk[0] = byte(k)
				mac := ch.MAC()
				mac.Init(&otk)
				xorWide(&key, &nonce, PayloadCounter(off), off%BlockSize, ct[off:off+frag], pt[off:off+frag], mac, &ch, nil, true)
				ch.Sum(mac, ct[off:off+frag], tags[k*TagSize:(k+1)*TagSize])
			}
			ch.Flush()
			for k := 0; k < frags; k++ {
				off := k * frag
				for i := off; i < off+frag; i++ {
					if ct[i] != pt[i]^ks[i] {
						t.Fatalf("chained frag=%d: fragment %d byte %d is not src XOR Block keystream", frag, k, i-off)
					}
				}
				otk[0] = byte(k)
				ref := NewMAC(&otk)
				ref.Update(ct[off : off+frag])
				if !ref.Verify(tags[k*TagSize : (k+1)*TagSize]) {
					t.Fatalf("chained frag=%d: fragment %d has the wrong tag", frag, k)
				}
			}
		}
	})
}

// A MAC'd run that starts mid-block takes its head from a block of its
// own, so that every call after it starts on a block boundary: a
// fragment laid out as SuiteAEAD lays them out, 1 008 bytes at skip 48,
// 32 or 16, is a head and one call of 16 lanes, and not calls of 16 and
// 1. Sealed through a chain, what the chain is left to fold shows it:
// the one call has no ciphertext of the fragment's to fold yet (the head
// is XORed after it), so the chain is left the whole fragment, head and
// all — into an empty chain, and into one that holds a message, which
// the call folds instead. Calls of 16 and 1 would leave it one block.
func TestMidBlockHeadIsPeeled(t *testing.T) {
	key := ExpandKey(0x9EE1)
	var nonce [NonceSize]byte
	var otk [KeySize]byte
	buf := make([]byte, 1008)
	for _, skip := range []int{16, 32, 48} {
		var ch Chain
		for _, behind := range []string{"empty", "holding a message"} {
			mac := ch.MAC()
			mac.Init(&otk)
			xorWide(&key, &nonce, 1, skip, buf, buf, mac, &ch, nil, true)
			if ch.held != len(buf) {
				t.Errorf("skip=%d, chain %s: the chain holds %d bytes, want the fragment's %d", skip, behind, ch.held, len(buf))
			}
			var tag [TagSize]byte
			ch.Sum(mac, buf, tag[:])
		}
	}
}

// keystream is the one place that picks a kernel or Block, and the
// pick shows: a kernel refuses a message that is not whole Poly1305
// blocks, which MAC.Update takes. So an 8-byte message panics exactly
// when a kernel runs — from wideMin blocks up with one, and never on
// the scalar path. The log says which kernel this machine picked.
func TestKeystreamPicksKernel(t *testing.T) {
	t.Logf("keystream runs the %s kernel here", kernelNames[kernel])
	eachKernel(t, func(t *testing.T) {
		key := ExpandKey(1)
		var nonce [NonceSize]byte
		var ks [wideSize]byte
		for nb := 1; nb <= Lanes; nb++ {
			var mac MAC
			ran := func() (panicked bool) {
				defer func() { panicked = recover() != nil }()
				keystream(&key, &nonce, seq(0), 0, ks[:], zeros[:], nb, nil, &mac, make([]byte, 8))
				return false
			}()
			if want := kernel != scalar && nb >= wideMin; ran != want {
				t.Fatalf("nb=%d: the kernel ran = %v, want %v", nb, ran, want)
			}
		}
	})
}

// On an IFMA host a call folding fewer than ifmaMin blocks, or none,
// runs keystream16mac, whose pair fold is the cheaper there, and one
// folding ifmaMin or more keystream16ifma; every other kernel runs
// itself at every count.
func TestShortFoldsSkipIFMA(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		for _, nblk := range []int{0, 1, ifmaMin - 1, ifmaMin, 63, foldMax} {
			want := kernel
			if kernel == avx512ifma && nblk < ifmaMin {
				want = avx512
			}
			if got := kernelFor(nblk); got != want {
				t.Errorf("a fold of %d blocks runs %s, want %s", nblk, kernelNames[got], kernelNames[want])
			}
		}
	})
}

// The kernels fold Poly1305 blocks into a MAC by the field offsets they
// were written against (wide_amd64.s): a field moved or resized must
// fail here, not as a wrong tag.
func TestMACLayout(t *testing.T) {
	var m MAC
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"r0", unsafe.Offsetof(m.r0), 0},
		{"r1", unsafe.Offsetof(m.r1), 8},
		{"h0", unsafe.Offsetof(m.h0), 32},
		{"h1", unsafe.Offsetof(m.h1), 40},
		{"h2", unsafe.Offsetof(m.h2), 48},
	} {
		if f.got != f.want {
			t.Errorf("MAC.%s is at offset %d, the kernel reads it at %d", f.name, f.got, f.want)
		}
	}
}

// foldRef is the oracle for a keystream call's Poly1305 side: msg, whole
// blocks, through MAC.block one at a time.
func foldRef(m *MAC, msg []byte) {
	for i := 0; i < len(msg); i += TagSize {
		m.block(le64(msg[i:]), le64(msg[i+8:]), 1)
	}
}

// canon is the accumulator of m reduced mod p = 2^130 - 5. A kernel
// folds two blocks per step and so leaves h partly reduced in its own
// way; what it must leave is the value MAC.block's limbs have, with h2
// small enough for MAC.block and Sum to take over.
func canon(m *MAC) [3]uint64 {
	h0, c := bits.Add64(m.h0, m.h2>>2*5, 0)
	h1, c := bits.Add64(m.h1, 0, c)
	h2 := m.h2&3 + c
	t0, b := bits.Sub64(h0, 0xFFFFFFFFFFFFFFFB, 0)
	t1, b := bits.Sub64(h1, 0xFFFFFFFFFFFFFFFF, b)
	t2, b := bits.Sub64(h2, 3, b)
	if b == 0 {
		return [3]uint64{t0, t1, t2}
	}
	return [3]uint64{h0, h1, h2}
}

// macMatches says whether mac, after a keystream call that folded nblk
// blocks, holds what ref does after MAC.block folded them: the same
// value mod p, and, if the call folded anything, h2 <= 4, which is all
// MAC.block leaves and all it may be handed.
func macMatches(mac, ref *MAC, nblk int) bool {
	return canon(mac) == canon(ref) && (nblk == 0 || mac.h2 <= 4) &&
		mac.r0 == ref.r0 && mac.r1 == ref.r1 && mac.s0 == ref.s0 && mac.s1 == ref.s1 && mac.n == ref.n
}

// The MAC side of a keystream call against MAC.block, for every number
// of blocks one call can fold, odd counts too, in a call of sixteen
// lanes and one of two (one AVX2 call instead of two), XORing all its
// blocks and all but a tail: it leaves the value that many blocks
// leave, and the keystream does not depend on it. The inputs sit
// at the edges of the arithmetic — all-ones blocks, an accumulator just
// below p or with every limb full, the largest r clamping allows — so
// that the pair step's full 130-bit r² and its carries are all driven
// to their widest, and the message is at an even and an odd address.
func TestKeystreamMACMatchesBlock(t *testing.T) {
	const rMax0, rMax1 = 0x0FFFFFFC0FFFFFFF, 0x0FFFFFFC0FFFFFFC
	const pLo, pMid, pHi = 0xFFFFFFFFFFFFFFFB, 0xFFFFFFFFFFFFFFFF, 3 // p = 2^130 - 5
	accs := []struct {
		name               string
		r0, r1, h0, h1, h2 uint64
	}{
		{"fresh", 0x0123456709ABCDEF & rMax0, 0x0FEDCBA987654321 & rMax1, 0, 0, 0},
		{"h just below p", 0x0123456709ABCDEF & rMax0, 0x0FEDCBA987654321 & rMax1, pLo - 1, pMid, pHi},
		{"largest r", rMax0, rMax1, 0x243F6A8885A308D3, 0x13198A2E03707344, 2},
		{"largest r, h just below p", rMax0, rMax1, pLo - 1, pMid, pHi},
		{"largest r, full limbs", rMax0, rMax1, ^uint64(0), ^uint64(0), 4},
		{"r with a full r², full limbs", 0x0FFFFFFC0FFFFFFF, 0x0A3D70A0E1FFFFFC, ^uint64(0), ^uint64(0), 4},
	}
	eachKernel(t, func(t *testing.T) {
		key := ExpandKey(0xB10C)
		nonce := [NonceSize]byte{7: 0x5A}
		const ctr = 0xfffffffd // the counter wraps inside the call
		want := blockStream(&key, &nonce, ctr, wideSize)
		buf := make([]byte, foldMax*TagSize+1)
		for _, ones := range []bool{false, true} {
			for i := range buf {
				buf[i] = byte(i*37 + 11)
				if ones {
					buf[i] = 0xff
				}
			}
			for _, at := range []int{0, 1} {
				msg := buf[at : at+foldMax*TagSize]
				for _, a := range accs {
					for _, nb := range []int{Lanes, wideMin} {
						for nblk := 0; nblk <= foldMax; nblk++ {
							mac := MAC{r0: a.r0, r1: a.r1, h0: a.h0, h1: a.h1, h2: a.h2}
							ref := mac
							foldRef(&ref, msg[:nblk*TagSize])
							var ks [wideSize]byte
							keystream(&key, &nonce, seq(ctr), 0, ks[:], zeros[:], nb, nil, &mac, msg[:nblk*TagSize])
							if !macMatches(&mac, &ref, nblk) {
								t.Fatalf("ones=%v at=%d %s nb=%d nblk=%d: h = %#x %#x %#x, MAC.block leaves %#x %#x %#x",
									ones, at, a.name, nb, nblk, mac.h0, mac.h1, mac.h2, ref.h0, ref.h1, ref.h2)
							}
							if !bytes.Equal(ks[:nb*BlockSize], want[:nb*BlockSize]) {
								t.Fatalf("ones=%v at=%d %s nb=%d nblk=%d: the keystream changed with the MAC work", ones, at, a.name, nb, nblk)
							}
							// The same fold beside an XOR of nb-1 whole
							// blocks of zeros and a tail.
							mac = MAC{r0: a.r0, r1: a.r1, h0: a.h0, h1: a.h1, h2: a.h2}
							var xd [wideSize]byte
							var tail [BlockSize]byte
							keystream(&key, &nonce, &laneRow, ctr, xd[:], zeros[:], nb-1, &tail, &mac, msg[:nblk*TagSize])
							if !macMatches(&mac, &ref, nblk) {
								t.Fatalf("XOR ones=%v at=%d %s nb=%d nblk=%d: h = %#x %#x %#x, MAC.block leaves %#x %#x %#x",
									ones, at, a.name, nb, nblk, mac.h0, mac.h1, mac.h2, ref.h0, ref.h1, ref.h2)
							}
							if !bytes.Equal(xd[:(nb-1)*BlockSize], want[:(nb-1)*BlockSize]) || !bytes.Equal(tail[:], want[(nb-1)*BlockSize:nb*BlockSize]) {
								t.Fatalf("XOR ones=%v at=%d %s nb=%d nblk=%d: the keystream changed with the MAC work", ones, at, a.name, nb, nblk)
							}
						}
					}
				}
			}
		}
	})
}

// The last carry of the pair step's reduction, into h2, needs h0 and h1
// both to be all ones just before it, which no drawn input reaches. With
// r = 1 the pair step is a sum and the carry can be aimed at: h = 3·2^128
// and m1 = 0 make a = 4·2^128 + 2^128, and m2 = 2^128 - 5 then leaves
// t = 2^128 - 5 + 5·2^128, whose fold is h0 = h1 = 2^64 - 1 plus 1.
func TestKeystreamMACPairCarry(t *testing.T) {
	msg := make([]byte, 2*TagSize)
	binary.LittleEndian.PutUint64(msg[16:], 1<<64-5)
	binary.LittleEndian.PutUint64(msg[24:], 1<<64-1)
	key := ExpandKey(7)
	var nonce [NonceSize]byte
	eachKernel(t, func(t *testing.T) {
		mac := MAC{r0: 1, h2: 3}
		ref := mac
		foldRef(&ref, msg)
		var ks [wideSize]byte
		keystream(&key, &nonce, seq(0), 0, ks[:], zeros[:], Lanes, nil, &mac, msg)
		if !macMatches(&mac, &ref, 2) {
			t.Fatalf("h = %#x %#x %#x, MAC.block leaves %#x %#x %#x", mac.h0, mac.h1, mac.h2, ref.h0, ref.h1, ref.h2)
		}
	})
}

// FuzzPolyKernel holds the MAC side of a keystream call against
// MAC.block over any message, block count up to foldMax (an odd count's
// last block is the kernel's one-block step), clamped r and accumulator
// a block can be handed (h2 <= 5), at any address, beside an XOR of
// sixteen blocks into zeros or (the accumulator byte's top bit) an
// in-place XOR of any number of whole blocks and a tail, on every kernel.
func FuzzPolyKernel(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0xff}, foldMax*TagSize), uint8(foldMax), ^uint64(0), ^uint64(0), uint64(0xFFFFFFFFFFFFFFFA), ^uint64(0), uint8(3))
	f.Add(bytes.Repeat([]byte{0xff}, foldMax*TagSize), uint8(foldMax-1), ^uint64(0), uint64(0x0A3D70A0E1FFFFFC), ^uint64(0), ^uint64(0), uint8(0x74))
	f.Add([]byte("sixteen bytes..!"), uint8(1), uint64(1), uint64(0), uint64(0), uint64(0), uint8(0x15))
	f.Add(bytes.Repeat([]byte{0xff}, 63*TagSize), uint8(63), ^uint64(0), ^uint64(0), ^uint64(0), uint64(15), uint8(0x84))
	f.Add(bytes.Repeat([]byte{0x5a}, 67*TagSize), uint8(67), uint64(0x0FFFFFFC0FFFFFFF), uint64(0x0FFFFFFC0FFFFFFC), uint64(1), uint64(2), uint8(0xF5))
	f.Fuzz(func(t *testing.T, data []byte, nblk uint8, r0, r1, h0, h1 uint64, h2 uint8) {
		n := int(nblk) % (foldMax + 1)
		if n*TagSize > len(data) {
			n = len(data) / TagSize
		}
		at := int(h2>>4) & 7
		buf := make([]byte, at+n*TagSize)
		msg := buf[at:]
		copy(msg, data)
		in := MAC{r0: r0 & 0x0FFFFFFC0FFFFFFF, r1: r1 & 0x0FFFFFFC0FFFFFFC, h0: h0, h1: h1, h2: uint64(h2&15) % 6}
		ref := in
		foldRef(&ref, msg)
		key := ExpandKey(r0 ^ h1)
		var nonce [NonceSize]byte
		eachKernel(t, func(t *testing.T) {
			mac := in
			var ks [wideSize]byte
			if h2&0x80 != 0 {
				// Beside an XOR of whole blocks and a tail, in place.
				var tail [BlockSize]byte
				keystream(&key, &nonce, &laneRow, uint32(h0), ks[:], ks[:], int(h1%Lanes), &tail, &mac, msg)
			} else {
				keystream(&key, &nonce, seq(uint32(h0)), 0, ks[:], zeros[:], Lanes, nil, &mac, msg)
			}
			if !macMatches(&mac, &ref, n) {
				t.Fatalf("nblk=%d: h = %#x %#x %#x, MAC.block leaves %#x %#x %#x", n, mac.h0, mac.h1, mac.h2, ref.h0, ref.h1, ref.h2)
			}
		})
	})
}

// FuzzKeystreamWide holds the wide loops, on every kernel, against
// scalar Block over any key, nonce, first counter, byte offset, length
// and split point: the stream XORed in two calls must be the stream XORed in one, and both
// src XOR the Block keystream; with a MAC the loop must leave that
// ciphertext and the MAC.Update tag over it, sealing, and opening in
// place and into another buffer; and, chained, the two sides of the
// split sealed as two messages through one Chain, each with a MAC the
// chain hands out, must each get the MAC.Update tag over their own
// ciphertext.
// Given a row, it runs free counters too: row's bytes, four to a
// counter, are up to Lanes counters, one of them (picked by the row's
// first byte) replaced by the run's first counter; every lane of a
// Blocks call over them must be the Block of its counter, and, for a run
// that starts mid-block, the lane holding the first block is the head
// the MAC'd runs are handed instead of making their own.
func FuzzKeystreamWide(f *testing.F) {
	f.Add([]byte("key"), []byte("nonce"), uint32(1), uint16(0), uint16(1008), uint16(16), false, []byte(nil))
	f.Add([]byte{}, []byte{}, uint32(0xfffffffb), uint16(48), uint16(1008), uint16(500), true, []byte(nil))
	f.Add(bytes.Repeat([]byte{0xff}, KeySize), bytes.Repeat([]byte{0xff}, NonceSize), uint32(1<<30), uint16(63), uint16(4096), uint16(4095), true, []byte(nil))
	f.Add([]byte("chain"), []byte("n"), uint32(1), uint16(48), uint16(2016), uint16(960), true, []byte(nil))
	f.Add([]byte("lanes"), []byte("n"), uint32(16), uint16(1008), uint16(1008), uint16(100), true,
		[]byte{3, 0, 0, 0x40, 0xfe, 0, 0, 0x40, 16, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 7, 0, 0, 0})
	f.Add([]byte{}, []byte{}, uint32(0xffffffff), uint16(8), uint16(56), uint16(8), false, bytes.Repeat([]byte{0xff}, 4*Lanes+3))
	f.Add([]byte("sixteen"), []byte("n"), uint32(0xfffffff8), uint16(48), uint16(3024), uint16(1008), true,
		[]byte{15, 0, 0, 0x40, 0xf8, 0xff, 0xff, 0xff, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 2, 0, 0, 0x40, 3, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0x40,
			9, 0, 0, 0, 7, 0, 0, 0x40, 0x10, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, 0, 0, 0, 0x80, 4, 0, 0, 0, 6, 0, 0, 0x40, 8, 0, 0, 0})
	f.Fuzz(func(t *testing.T, keyBytes, nonceBytes []byte, ctr uint32, off, length, split uint16, chained bool, row []byte) {
		eachKernel(t, func(t *testing.T) {
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
			xorWide(&key, &nonce, ctr, skip, one, src, nil, nil, nil, false)
			if !bytes.Equal(one, want) {
				t.Fatal("one call: not src XOR Block keystream")
			}
			two := make([]byte, n)
			xorWide(&key, &nonce, ctr, skip, two[:cut], src[:cut], nil, nil, nil, false)
			at := skip + cut
			xorWide(&key, &nonce, ctr+uint32(at/BlockSize), at%BlockSize, two[cut:], src[cut:], nil, nil, nil, false)
			if !bytes.Equal(two, want) {
				t.Fatalf("split at %d: not src XOR Block keystream", cut)
			}

			var head *[BlockSize]byte
			if nl := min(len(row)/4, Lanes); nl > 0 {
				var ctrs [Lanes]uint32
				for i := 0; i < nl; i++ {
					ctrs[i] = binary.LittleEndian.Uint32(row[4*i:])
				}
				hl := int(row[0]) % nl
				ctrs[hl] = ctr
				var lanes [Lanes * BlockSize]byte
				Blocks(&key, &nonce, &ctrs, nl, &lanes)
				for i := 0; i < nl; i++ {
					var blk [BlockSize]byte
					Block(&key, &nonce, ctrs[i], &blk)
					if !bytes.Equal(lanes[i*BlockSize:(i+1)*BlockSize], blk[:]) {
						t.Fatalf("counters %#x, n=%d: lane %d is not Block(%#x)", ctrs, nl, i, ctrs[i])
					}
				}
				if skip != 0 {
					head = (*[BlockSize]byte)(lanes[hl*BlockSize:])
				}
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
			xorWide(&key, &nonce, ctr, skip, one, src, &seal, nil, head, true)
			if !bytes.Equal(one, want) || !seal.Verify(tag[:]) {
				t.Fatal("seal: wrong ciphertext or tag")
			}
			ctCopy := append([]byte(nil), one...)
			xorWide(&key, &nonce, ctr, skip, one, one, &open, nil, head, false)
			if !bytes.Equal(one, src) || !open.Verify(tag[:]) {
				t.Fatal("open in place: wrong plaintext or tag")
			}
			open = NewMAC(&otk)
			xorWide(&key, &nonce, ctr, skip, two, ctCopy, &open, nil, head, false)
			if !bytes.Equal(two, src) || !open.Verify(tag[:]) {
				t.Fatal("open into another buffer: wrong plaintext or tag")
			}
			if !chained {
				return
			}

			otkB := otk
			otkB[0] ^= 1
			var ch Chain
			macA := ch.MAC()
			macA.Init(&otk)
			var tagA, tagB [TagSize]byte
			ct := make([]byte, n)
			xorWide(&key, &nonce, ctr, skip, ct[:cut], src[:cut], macA, &ch, head, true)
			ch.Sum(macA, ct[:cut], tagA[:])
			macB := ch.MAC()
			if macB == macA && ch.tag != nil {
				t.Fatal("the chain handed out the MAC it holds")
			}
			macB.Init(&otkB)
			xorWide(&key, &nonce, ctr+uint32(at/BlockSize), at%BlockSize, ct[cut:], src[cut:], macB, &ch, nil, true)
			ch.Sum(macB, ct[cut:], tagB[:])
			ch.Flush()
			refA, refB := NewMAC(&otk), NewMAC(&otkB)
			refA.Update(want[:cut])
			refB.Update(want[cut:])
			if !bytes.Equal(ct, want) || !refA.Verify(tagA[:]) || !refB.Verify(tagB[:]) {
				t.Fatalf("chained at %d: wrong ciphertext or tag", cut)
			}
			if ch.tag != nil || ch.msg != nil || ch.held != 0 {
				t.Fatal("the chain is not empty after Flush")
			}
		})
	})
}
