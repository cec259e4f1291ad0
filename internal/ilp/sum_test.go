package ilp

import (
	"bytes"
	"fmt"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/checksum"
	"repro/internal/scramble"
)

// sumVector is internal/checksum's switch between its AVX2 copy and
// checksum loop and the Go loops, reached by its symbol so that these
// tests run both arms without the package exporting a switch. It is
// true wherever the CPU has the vector loop and no test has it.
//
//go:linkname sumVector repro/internal/checksum.vector
var sumVector bool

// eachSumKernel runs f once on the vector loop and once on the Go loops
// alone, as internal/checksum's own tests do; where this CPU or build
// has no vector loop, that arm is skipped, and the skip says so.
func eachSumKernel(t *testing.T, f func(t *testing.T)) {
	have := sumVector
	for _, arm := range []struct {
		name string
		on   bool
	}{{"vector", true}, {"go", false}} {
		t.Run(arm.name, func(t *testing.T) {
			if arm.on && !have {
				t.Skip("no vector loop here: this CPU lacks AVX2, or the build is not amd64 or is purego")
			}
			sumVector = arm.on
			t.Cleanup(func() { sumVector = have })
			f(t)
		})
	}
}

// ref16 is the reference every Internet-checksum loop in the tree is
// driven against: one big-endian 16-bit word per add, odd length padded
// with a zero byte, no unrolling and no deferred carries.
func ref16(data []byte) uint64 {
	var sum uint64
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if len(data)%2 == 1 {
		sum += uint64(data[len(data)-1]) << 8
	}
	return sum
}

const sumKey = 0x5eed

// A sumKernel is one of the loops that move bytes and sum them. run
// reports the folded, uncomplemented sum the kernel arrived at, so
// kernels that return a partial sum and kernels that return the
// finished checksum compare against the same reference. cipher, when
// set, turns a copy of src into what dst must hold; sumsDst says the sum
// is over what was written, not what was read.
type sumKernel struct {
	name    string
	run     func(dst, src []byte) uint16
	cipher  func(buf []byte)
	sumsDst bool
}

// The keystream the scrambling kernels use, from position 0.
func wordAtStream(buf []byte) { scramble.XORAt(sumKey, 0, buf) }

var sumKernels = []sumKernel{
	{name: "FusedCopySum", run: func(dst, src []byte) uint16 {
		return checksum.Fold(FusedCopySum(dst, src))
	}},
	{name: "FusedEncryptCopySum", cipher: wordAtStream, run: func(dst, src []byte) uint16 {
		return checksum.Fold(FusedEncryptCopySum(dst, src, sumKey, 0))
	}},
	{name: "FusedDecryptCopySum", cipher: wordAtStream, sumsDst: true, run: func(dst, src []byte) uint16 {
		return checksum.Fold(FusedDecryptCopySum(dst, src, sumKey, 0))
	}},
	{name: "SeparateCopyThenChecksum", run: func(dst, src []byte) uint16 {
		return ^SeparateCopyThenChecksum(dst, src)
	}},
	{name: "ChecksumStage/FusedPath", run: func(dst, src []byte) uint16 {
		ck := &ChecksumStage{}
		FusedPath(dst, src, []WordStage{ck})
		return ^ck.Sum()
	}},
	{name: "ChecksumStage/LayeredPath", run: func(dst, src []byte) uint16 {
		ck := &ChecksumStage{}
		LayeredPath(dst, make([]byte, len(src)), src, []WordStage{IdentityStage{}, ck})
		return ^ck.Sum()
	}},
}

// check runs k on src into dst and compares the bytes written and the
// sum against the reference. dst must be at least one byte longer than
// src, so a store past the end shows.
func (k sumKernel) check(dst, src []byte) error {
	n := len(src)
	for i := range dst {
		dst[i] = 0xa5
	}
	got := k.run(dst[:n], src)
	out := append([]byte(nil), src...)
	if k.cipher != nil {
		k.cipher(out)
	}
	if !bytes.Equal(dst[:n], out) {
		return fmt.Errorf("bytes written differ from the reference")
	}
	if dst[n] != 0xa5 {
		return fmt.Errorf("wrote past len(src)")
	}
	summed := src
	if k.sumsDst {
		summed = out
	}
	if want := checksum.Fold(ref16(summed)); got != want {
		return fmt.Errorf("sum folds to %#04x, reference %#04x", got, want)
	}
	return nil
}

// maxDiffLen covers the 64-byte main loop many times over plus every
// residue mod 64 (and so mod 8, and odd lengths) past the last full
// window.
const maxDiffLen = 4096 + 71

// diffPayloads are the contents the kernels are compared on: random
// bytes, the two payloads on which one's-complement arithmetic has two
// representations of zero, and one that keeps every 64-bit add carrying
// (all-ones words, then a word that wraps the running sum).
func diffPayloads() map[string][]byte {
	ones := bytes.Repeat([]byte{0xff}, maxDiffLen+8)
	carry := bytes.Repeat([]byte{0xff}, maxDiffLen+8)
	for i := range carry {
		if i%24 >= 16 { // every third word is 0x0001 in each lane
			carry[i] = byte(i % 2)
		}
	}
	return map[string][]byte{
		"random": randBytes(maxDiffLen+8, 23),
		"zeros":  make([]byte, maxDiffLen+8),
		"ones":   ones,
		"carry":  carry,
	}
}

func TestSumKernelsMatchReference(t *testing.T) {
	eachSumKernel(t, func(t *testing.T) {
		dst := make([]byte, maxDiffLen+16)
		for name, p := range diffPayloads() {
			for _, k := range sumKernels {
				for n := 0; n <= maxDiffLen; n++ {
					// All 8x8 alignments of src and dst up to four windows;
					// past that the offsets walk with the length.
					srcOffs, dstOffs := []int{n % 8}, []int{n / 8 % 8}
					if n <= 264 {
						srcOffs, dstOffs = []int{0, 1, 2, 3, 4, 5, 6, 7}, []int{0, 1, 2, 3, 4, 5, 6, 7}
						if k.cipher != nil {
							dstOffs = []int{n % 8} // the keystream costs more than the loop under test
						}
					}
					for _, so := range srcOffs {
						for _, do := range dstOffs {
							if err := k.check(dst[do:do+n+1], p[so:so+n]); err != nil {
								t.Fatalf("%s on %s, n=%d src+%d dst+%d: %v", k.name, name, n, so, do, err)
							}
						}
					}
				}
			}
		}
	})
}

// RFC 1071 section 3's worked example, through every kernel: the words
// 0001 f203 f4f5 f6f7 sum to 0xddf2 before the complement. The
// scrambling kernels are handed the ciphertext of it.
func TestSumKernelsRFC1071Vector(t *testing.T) {
	vec := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	for _, k := range sumKernels {
		src := append([]byte(nil), vec...)
		if k.sumsDst {
			k.cipher(src)
		}
		if got := k.run(make([]byte, len(src)), src); got != 0xddf2 {
			t.Errorf("%s: %#04x, want 0xddf2", k.name, got)
		}
	}
}

// Per-fragment partial sums, added and folded once through FinishSum,
// are the whole ADU's checksum — for every fragment size the core can
// choose (any multiple of 8) and on the payloads where deferred carries
// and the two zeros matter.
func TestFusedCopySumFragmentsFoldLikeWhole(t *testing.T) {
	eachSumKernel(t, func(t *testing.T) {
		const key = 77
		for name, p := range diffPayloads() {
			for _, n := range []int{0, 63, 64, 1000, 4001} {
				adu := p[5 : 5+n]
				want := ^checksum.Fold(ref16(adu))
				for _, frag := range []int{8, 72, 512, 1464} {
					dst, enc, dec := make([]byte, n), make([]byte, n), make([]byte, n)
					var plain, sent, rcvd uint64
					for lo := 0; lo < n; lo += frag {
						hi := min(lo+frag, n)
						plain += FusedCopySum(dst[lo:hi], adu[lo:hi])
						sent += FusedEncryptCopySum(enc[lo:hi], adu[lo:hi], key, lo)
						rcvd += FusedDecryptCopySum(dec[lo:hi], enc[lo:hi], key, lo)
					}
					if FinishSum(plain) != want || FinishSum(sent) != want || FinishSum(rcvd) != want {
						t.Fatalf("%s n=%d frag=%d: clear %#04x, encrypt %#04x, decrypt %#04x, want %#04x",
							name, n, frag, FinishSum(plain), FinishSum(sent), FinishSum(rcvd), want)
					}
					if !bytes.Equal(dst, adu) || !bytes.Equal(dec, adu) {
						t.Fatalf("%s n=%d frag=%d: bytes differ after the round trip", name, n, frag)
					}
				}
			}
		}
	})
}

// WordCopy and XORWords share the kernels' windowed loop; drive them
// over the same lengths and alignments, against copy and a byte loop.
func TestWordCopyXORWordsEveryLengthAndAlignment(t *testing.T) {
	eachSumKernel(t, func(t *testing.T) {
		p := randBytes(maxDiffLen+8, 29)
		q := randBytes(maxDiffLen+8, 31)
		dst, want := make([]byte, maxDiffLen+16), make([]byte, maxDiffLen+16)
		for n := 0; n <= maxDiffLen; n++ {
			offs := []int{n % 8}
			if n <= 264 {
				offs = []int{0, 1, 2, 3, 4, 5, 6, 7}
			}
			for _, so := range offs {
				do := (so + n/8) % 8
				src, d, w := p[so:so+n], dst[do:do+n+1], want[do:do+n+1]
				copy(d, q)
				copy(w, q)
				copy(w, src)
				if got := WordCopy(d[:n], src); got != n || !bytes.Equal(d, w) {
					t.Fatalf("WordCopy n=%d src+%d dst+%d: returned %d, or bytes differ", n, so, do, got)
				}
				copy(d, q)
				for i := range src {
					w[i] = q[i] ^ src[i]
				}
				if got := XORWords(d[:n], src); got != n || !bytes.Equal(d, w) {
					t.Fatalf("XORWords n=%d src+%d dst+%d: returned %d, or bytes differ", n, so, do, got)
				}
			}
		}
	})
}

// armsMaxLen is the longest run TestSumArmsAgree compares: sixteen
// 128-byte steps of the vector loop and every tail after them, past a
// 1 464-byte fragment.
const armsMaxLen = 2100

// forms runs the three forms of the copy and checksum loop on src, one
// arm: the sum alone (checksum.Accumulate, from a non-zero sum), the copy
// and sum (FusedCopySum), whole and chained at split s, a multiple of 8,
// into dst, and the copy (WordCopy) into cp. dst and cp are one byte
// longer than src.
func forms(vector bool, dst, cp, src []byte, s int) [4]uint64 {
	sumVector = vector
	n := len(src)
	var r [4]uint64
	r[0] = checksum.Accumulate(0xfedcba9876, src)
	r[1] = FusedCopySum(dst[:s], src[:s]) + FusedCopySum(dst[s:n], src[s:])
	r[2] = FusedCopySum(dst[:n], src)
	r[3] = uint64(WordCopy(cp[:n], src))
	return r
}

// armsAgree runs forms on both arms, from dst and cp filled with 0xa5,
// and reports where the vector loop differs from the Go one: a sum, a
// count, a byte written, or a byte past src's length.
func armsAgree(bufs *[4][]byte, src []byte, do, s int) error {
	n := len(src)
	var got [2][4]uint64
	for a := range got {
		dst, cp := bufs[2*a][do:do+n+1], bufs[2*a+1][do:do+n+1]
		for i := range dst {
			dst[i], cp[i] = 0xa5, 0xa5
		}
		got[a] = forms(a == 0, dst, cp, src, s)
		if !bytes.Equal(dst[:n], src) || !bytes.Equal(cp[:n], src) || dst[n] != 0xa5 || cp[n] != 0xa5 {
			return fmt.Errorf("arm %d: bytes written differ from src, or run past it", a)
		}
	}
	if got[0] != got[1] {
		return fmt.Errorf("vector %#x, Go %#x (Accumulate, chained FusedCopySum, FusedCopySum, WordCopy)", got[0], got[1])
	}
	return nil
}

// TestSumArmsAgree holds the vector loop against the Go loops it stands
// in for, bit for bit, in all three forms: the unfolded partial sums,
// whole and chained at 8-aligned splits, the bytes written and nothing
// past them, at every length to armsMaxLen and every misalignment 0…7
// of source and destination. At one alignment a length also chains at
// every 8-aligned split.
func TestSumArmsAgree(t *testing.T) {
	if !sumVector {
		t.Skip("no vector loop here: this CPU lacks AVX2, or the build is not amd64 or is purego")
	}
	t.Cleanup(func() { sumVector = true })
	var bufs [4][]byte
	for i := range bufs {
		bufs[i] = make([]byte, armsMaxLen+16)
	}
	for name, p := range diffPayloads() {
		for n := 0; n <= armsMaxLen; n++ {
			for so := 0; so < 8; so++ {
				for do := 0; do < 8; do++ {
					s := (n/2 + 8*do) % (n + 1) &^ 7
					if err := armsAgree(&bufs, p[so:so+n], do, s); err != nil {
						t.Fatalf("%s n=%d src+%d dst+%d split %d: %v", name, n, so, do, s, err)
					}
				}
			}
			if name != "random" {
				continue
			}
			for s := 0; s <= n; s += 8 {
				if err := armsAgree(&bufs, p[n%8:n%8+n], n/8%8, s); err != nil {
					t.Fatalf("%s n=%d split %d: %v", name, n, s, err)
				}
			}
		}
	}
}

// FuzzSumKernels drives every kernel and checksum.Accumulate against
// the reference on arbitrary bytes at an arbitrary alignment, checks
// that the sum chains across an arbitrary even split, and holds the
// vector loop against the Go loops there (armsAgree).
func FuzzSumKernels(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, uint8(0), uint16(4))
	f.Add(bytes.Repeat([]byte{0xff}, 200), uint8(3), uint16(64))
	f.Add(append(bytes.Repeat([]byte{0xff}, 128), 0, 1, 0, 1, 0, 1, 0, 1, 9), uint8(5), uint16(130))
	f.Add(make([]byte, 71), uint8(7), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, off uint8, split uint16) {
		o := int(off % 8)
		if len(data) < o {
			return
		}
		src := data[o:]
		n := len(src)
		dst := make([]byte, n+9)
		for _, k := range sumKernels {
			if err := k.check(dst[o:o+n+1], src); err != nil {
				t.Fatalf("%s n=%d off=%d: %v", k.name, n, o, err)
			}
		}
		want := checksum.Fold(ref16(src))
		s := 0
		if n > 0 {
			s = int(split) % (n + 1) &^ 1
		}
		if got := checksum.Fold(checksum.Accumulate(checksum.Accumulate(0, src[:s]), src[s:])); got != want {
			t.Fatalf("Accumulate n=%d split=%d: %#04x, reference %#04x", n, s, got, want)
		}
		// FusedCopySum chains like the receiver uses it: fragments at
		// 8-aligned offsets, partial sums added.
		s &^= 7
		got := checksum.Fold(FusedCopySum(dst[:s], src[:s]) + FusedCopySum(dst[s:n], src[s:]))
		if got != want {
			t.Fatalf("FusedCopySum n=%d split=%d: %#04x, reference %#04x", n, s, got, want)
		}
		// And the vector loop is the Go loops bit for bit.
		if sumVector {
			defer func() { sumVector = true }()
			var bufs [4][]byte
			for i := range bufs {
				bufs[i] = make([]byte, n+9)
			}
			if err := armsAgree(&bufs, src, o, s); err != nil {
				t.Fatalf("n=%d off=%d split=%d: %v", n, o, s, err)
			}
		}
	})
}

func BenchmarkFusedCopySum(b *testing.B) {
	// The SuiteNone datapath kernel at the benchmark's fragment sizes:
	// udp_clear_256's ADU, one MTU-sized fragment, sim_clear_8k's ADU.
	for _, n := range []int{256, 1024, 8192} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			src, dst := benchBuf(n)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sumSink = FusedCopySum(dst, src)
			}
		})
	}
}

var sumSink uint64
