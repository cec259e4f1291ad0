package checksum

import (
	"fmt"
	"math/rand"
	"testing"
)

// ref16 is the reference every Internet-checksum loop in the tree is
// driven against: one big-endian 16-bit word per add, odd length padded
// with a zero byte, no unrolling and no deferred carries.
func ref16(sum uint64, data []byte) uint64 {
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if len(data)%2 == 1 {
		sum += uint64(data[len(data)-1]) << 8
	}
	return sum
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
	random := make([]byte, maxDiffLen+8)
	rand.New(rand.NewSource(23)).Read(random)
	ones := make([]byte, maxDiffLen+8)
	for i := range ones {
		ones[i] = 0xff
	}
	carry := make([]byte, maxDiffLen+8)
	for i := range carry {
		carry[i] = 0xff
		if i%24 >= 16 { // every third word is 0x0001 in each lane
			carry[i] = byte(i % 2)
		}
	}
	return map[string][]byte{
		"random": random,
		"zeros":  make([]byte, maxDiffLen+8),
		"ones":   ones,
		"carry":  carry,
	}
}

// diffLens calls f for every length and sub-slice offset the
// differential tests cover: all eight offsets up to four windows, then
// every length with the offset walking with it.
func diffLens(f func(n, off int)) {
	for n := 0; n <= maxDiffLen; n++ {
		if n <= 264 {
			for off := 0; off < 8; off++ {
				f(n, off)
			}
		} else {
			f(n, n%8)
		}
	}
}

// eachSumKernel runs f once with the vector loop and once with the Go
// loops alone, in one process; where this CPU or build has no vector
// loop, that arm is skipped, and the skip says so.
func eachSumKernel(t *testing.T, f func(t *testing.T)) {
	have := vector
	for _, arm := range []struct {
		name string
		on   bool
	}{{"vector", true}, {"go", false}} {
		t.Run(arm.name, func(t *testing.T) {
			if arm.on && !have {
				t.Skip("no vector loop here: this CPU lacks AVX2, or the build is not amd64 or is purego")
			}
			vector = arm.on
			t.Cleanup(func() { vector = have })
			f(t)
		})
	}
}

func TestAccumulateMatchesReference(t *testing.T) {
	eachSumKernel(t, func(t *testing.T) {
		for name, p := range diffPayloads() {
			for _, in := range []uint64{0, 0x1234, 0xffff, 0xfedcba9876} {
				diffLens(func(n, off int) {
					data := p[off : off+n]
					got, want := Fold(Accumulate(in, data)), Fold(ref16(in, data))
					if got != want {
						t.Fatalf("%s n=%d off=%d sum=%#x: Fold(Accumulate) = %#04x, reference %#04x", name, n, off, in, got, want)
					}
				})
			}
		}
	})
}

func TestAccumulateChainsAtEverySplit(t *testing.T) {
	eachSumKernel(t, func(t *testing.T) {
		for name, p := range diffPayloads() {
			for _, n := range []int{0, 9, 34, 64, 135, 257} {
				data := p[3 : 3+n]
				want := Fold(ref16(0, data))
				for split := 0; split <= n; split += 2 {
					got := Fold(Accumulate(Accumulate(0, data[:split]), data[split:]))
					if got != want {
						t.Fatalf("%s n=%d split=%d: chained %#04x, whole %#04x", name, n, split, got, want)
					}
				}
			}
		}
	})
}

// RFC 1071 section 3's worked example.
func TestAccumulateRFC1071Vector(t *testing.T) {
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Fold(Accumulate(0, data)); got != 0xddf2 {
		t.Errorf("Fold(Accumulate) = %#04x, want 0xddf2", got)
	}
}

// Wide's contract, stated on words instead of through a kernel: the
// little-endian words' sum with its deferred carries, folded and
// swapped, is the network-order sum of the same bytes.
func TestWideSum(t *testing.T) {
	const ones = ^uint64(0)
	for _, tc := range []struct {
		words []uint64
		want  uint64
	}{
		{nil, 0},
		{[]uint64{0, 0, 0}, 0},
		{[]uint64{ones}, 0xffff},               // the other zero stays all-ones
		{[]uint64{ones, 1}, 0x0100},            // wraps to 0, one carry: lane value 0x0001, bytes swapped
		{[]uint64{ones, ones, 2}, 0x0200},      // two carries outstanding at the end
		{[]uint64{ones, ones, 1}, 0x0100},      // adding the carry back wraps once more
		{[]uint64{ones, ones, ones}, 0xffff},   // a sum of zeros is a zero, not 0
		{[]uint64{0xf7f6f5f403f20100}, 0xddf2}, // RFC 1071's 00 01 f2 03 f4 f5 f6 f7 as one word
	} {
		var one, four Wide
		for _, w := range tc.words {
			one = one.Add(w)
			four = four.Add4(0, w, 0, 0)
		}
		if got := one.Sum(); got != tc.want {
			t.Errorf("Add %x: Sum = %#x, want %#04x", tc.words, got, tc.want)
		}
		if got := four.Sum(); got != tc.want {
			t.Errorf("Add4 %x: Sum = %#x, want %#04x", tc.words, got, tc.want)
		}
	}
	// A carry out of each of Add4's four adds, the last left in the flag.
	if got := (Wide{}).Add(ones).Add4(ones, ones, ones, 5).Sum(); got != 0x0500 {
		t.Errorf("Add4 carrying throughout: Sum = %#x, want 0x0500", got)
	}
}

func BenchmarkSum16(b *testing.B) {
	// 5: the BER chunk E5 feeds through accumulateOdd; 34: a data
	// header, checked on every fragment. (4096, T1's row, is
	// BenchmarkSum16_4KB.)
	for _, n := range []int{5, 34} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			data := make([]byte, n)
			rand.New(rand.NewSource(1)).Read(data)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = Sum16(data)
			}
		})
	}
}

var sink uint16
