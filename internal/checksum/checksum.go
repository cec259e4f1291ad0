// Package checksum implements the error-detection kernels used as data
// manipulation stages throughout the stack: the Internet one's-complement
// checksum (the "TCP checksum" of the paper's Table 1).
//
// The Internet checksum loops, here and in internal/ilp, share one
// accumulator, built from RFC 1071 section 2's three observations: the
// sum is byte-order independent, so data is loaded as little-endian
// words and the result byte-swapped once (A, B); the words may be as
// wide as the machine's, here 64 bits, because 2^64 = 1 (mod 0xffff)
// (C); and carries out of the top may be deferred, here by counting
// them (math/bits.Add64) and adding the count back in after the loop
// (Wide). All functions are allocation-free.
//
// The Table 1 manipulations — checksum, copy and checksum fused, and
// copy — have one hand-coded loop on amd64 with AVX2 (sum_amd64.s),
// which sums the words and their high halves in vector lanes and hands
// back a Wide whose Sum is the Go loops', so every partial sum is the
// same bit for bit. Accumulate hands it its whole 64-byte windows; internal/ilp's
// FusedCopySum and WordCopy their whole 8-byte words through
// CopySumWords and CopyWords. Where it is missing, those hand the
// caller back nothing done, and the caller's Go loop takes the bytes.
package checksum

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/cpu"
)

// vector says the vector loop runs here: AVX2 with its registers saved,
// read once at start. Only tests assign it, to run both arms on one
// machine.
var vector = cpu.AVX2

// maxRun is the longest run the vector loop takes: past 2^35 bytes its
// totals could wrap, and the Go loops take the whole run instead.
const maxRun = 1 << 34

// CopySumWords copies the whole 8-byte words at the start of src to dst
// with the vector loop and returns their sum and how many bytes that
// was: len(src) &^ 7, or none where there is no vector loop. The
// caller's Go loop goes on from there, adding to the Wide returned.
// len(dst) >= len(src).
func CopySumWords(dst, src []byte) (Wide, int) { return words(dst[:len(src)], src, true) }

// CopyWords is CopySumWords without the sum, over the shorter of dst
// and src.
func CopyWords(dst, src []byte) int {
	n := min(len(dst), len(src))
	_, n = words(dst[:n], src[:n], false)
	return n
}

// words runs one form of the vector loop over the whole 8-byte words of
// src: the sum form if dst is nil, else the copy and sum form or, if
// not sum, the copy form.
func words(dst, src []byte, sum bool) (Wide, int) {
	n := len(src) &^ 7
	switch {
	case !vector || n == 0 || uint64(n) > maxRun:
		return Wide{}, 0
	case dst == nil:
		return Wide{sum: sumAVX2(&src[0], n)}, n
	case sum:
		return Wide{sum: copySumAVX2(&dst[0], &src[0], n)}, n
	}
	copyAVX2(&dst[0], &src[0], n)
	return Wide{}, n
}

// Sum16 computes the Internet checksum (RFC 1071 style: 16-bit one's
// complement of the one's-complement sum) over data. The returned value
// is the checksum field content: the complemented fold of the sum.
func Sum16(data []byte) uint16 {
	return ^Fold(Accumulate(0, data))
}

// Verify16 reports whether data whose trailing/embedded checksum is
// already included sums to the all-ones pattern, i.e. the data is intact.
func Verify16(data []byte) bool {
	return Fold(Accumulate(0, data)) == 0xffff
}

// Accumulate adds data into a running partial one's-complement sum. Use
// Fold to collapse the result to 16 bits. Partial sums over consecutive
// even-length chunks may be chained; data here is treated as big-endian
// 16-bit words with an implicit zero pad on odd length (so only the
// final chunk of a chained computation may have odd length).
//
// Full 64-byte windows go through the word-wide accumulator, the vector
// loop's or the Go one below. What is left, and anything shorter (a
// header, a BER element, the last bytes of a fragment), is under 64
// bytes, too little to repay a fold and a swap: it is loaded big-endian
// and added as 32-bit halves, which sixteen of cannot carry.
func Accumulate(sum uint64, data []byte) uint64 {
	if n := len(data); n >= 64 {
		acc, i := words(nil, data[:n&^63], true)
		for ; n-i >= 64; i += 64 {
			a := data[i : i+64 : i+64]
			acc = acc.Add4(binary.LittleEndian.Uint64(a[0:]), binary.LittleEndian.Uint64(a[8:]),
				binary.LittleEndian.Uint64(a[16:]), binary.LittleEndian.Uint64(a[24:]))
			acc = acc.Add4(binary.LittleEndian.Uint64(a[32:]), binary.LittleEndian.Uint64(a[40:]),
				binary.LittleEndian.Uint64(a[48:]), binary.LittleEndian.Uint64(a[56:]))
		}
		sum += acc.Sum()
		data = data[i:]
	}
	const lo32 = 0xffffffff
	for len(data) >= 16 {
		w0, w1 := binary.BigEndian.Uint64(data), binary.BigEndian.Uint64(data[8:])
		sum += w0>>32 + w0&lo32 + w1>>32 + w1&lo32
		data = data[16:]
	}
	if len(data) >= 8 {
		w := binary.BigEndian.Uint64(data)
		sum += w>>32 + w&lo32
		data = data[8:]
	}
	if len(data) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint64(data[0]) << 8
	}
	return sum
}

// Wide is the word-wide one's-complement accumulator every Internet
// checksum loop in the tree sums with: data goes in as little-endian
// 64-bit words, the carries out of bit 63 are counted instead of folded
// back, and nothing is folded or byte-swapped until Sum. The zero value
// is an empty sum; the methods return the updated value, so a Wide held
// in a local stays in registers.
type Wide struct {
	sum     uint64 // low 64 bits of the total
	carries uint64 // how many times the total wrapped
}

// Add adds one word.
func (a Wide) Add(w uint64) Wide {
	var c uint64
	a.sum, c = bits.Add64(a.sum, w, 0)
	a.carries += c
	return a
}

// Add4 adds four words: one add and three add-with-carry instructions,
// the flag handed from each to the next and counted once at the end, so
// that no add waits on a carry from the previous call.
func (a Wide) Add4(w0, w1, w2, w3 uint64) Wide {
	var c uint64
	a.sum, c = bits.Add64(a.sum, w0, 0)
	a.sum, c = bits.Add64(a.sum, w1, c)
	a.sum, c = bits.Add64(a.sum, w2, c)
	a.sum, c = bits.Add64(a.sum, w3, c)
	a.carries += c
	return a
}

// Sum returns what was added as a 16-bit partial sum in network order:
// the sum of the same bytes taken as big-endian 16-bit words, which
// adds to other partial sums, which Accumulate chains and Fold finishes,
// and which is zero only if every word was. Each wrap is worth 2^64 = 1
// (mod 0xffff), so the count returns at the bottom — the end-around
// carry, all at once. One byte reversal of the total then puts every
// 16-bit lane in network order (it reverses the order of the lanes too,
// which all weigh 1), and the lanes fold together.
func (a Wide) Sum() uint64 {
	sum, c := bits.Add64(a.sum, a.carries, 0)
	sum = bits.ReverseBytes64(sum + c) // cannot wrap again: if it just did, sum < carries
	return uint64(Fold(sum>>32 + sum&0xffffffff))
}

// Fold collapses a partial sum into the 16-bit one's-complement result
// (not yet complemented).
func Fold(sum uint64) uint16 {
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return uint16(sum)
}
