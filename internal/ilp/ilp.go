// Package ilp implements Integrated Layer Processing (paper §6): the
// data-manipulation steps of different protocol layers — copying,
// checksumming, decryption, presentation conversion, and the move into
// application address space — arranged so an implementor can run them in
// one integrated processing loop instead of one full memory pass per
// layer.
//
// The package provides three tiers, which together form the A1 ablation:
//
//   - Hand-fused kernels (FusedCopySum, FusedDecryptCopySum,
//     EncodeBERInt32sChecksum, ...): the "hand coded unrolled loop" of
//     the paper's §4 measurements. The checksum in them is RFC 1071's
//     wide-word form (checksum.Wide): little-endian 64-bit words summed
//     by add-with-carry, folded and byte-swapped once after the loop.
//     On amd64 with AVX2, FusedCopySum and WordCopy hand their whole
//     words to internal/checksum's vector loop, the body Accumulate
//     sums with too, which arrives at the same Wide.
//     EncodeBERInt32sChecksum's unfused control arm in E5 is the
//     codec's own xcode.AppendBERInt32s.
//   - A generic stage pipeline (FusedPath) that applies any stage list
//     word by word in a single pass, paying an indirect call per stage
//     per word.
//   - A layered equivalent (LayeredPath) that makes one full pass over
//     the data per stage, modeling the naive layered engineering the
//     paper argues against.
//
// All kernels are allocation-free on the steady-state path.
package ilp

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/checksum"
	"repro/internal/scramble"
	"repro/internal/xcode"
)

// The hand kernels below share one loop shape. Both slices are cut to
// the common length, capacity too, so that one register bounds them
// both. The main loop takes a 64-byte window of each by a full slice
// expression (src[i : i+64 : i+64]), so the compiler proves its eight
// loads or stores in bounds from that one check (make bce-guard pins
// the count). The kernels that checksum add the window to a
// checksum.Wide, four words to a carry chain. A word loop and a byte
// tail finish what is under 64 bytes. WordCopy and FusedCopySum start
// them where checksum's vector loop stopped: past every whole word, or
// at 0 without it.

// WordCopy copies src into dst with an explicit word loop — the
// baseline "copy" manipulation of Table 1. It copies min(len(dst),
// len(src)) bytes and returns the count. (The Go built-in copy is an
// optimized memmove; WordCopy exists so that copy, checksum, and their
// fusion all run one loop discipline — checksum's AVX2 body on amd64,
// the Go loops below elsewhere — and the comparison isolates memory
// passes, not SIMD.)
func WordCopy(dst, src []byte) int {
	n := min(len(dst), len(src))
	dst, src = dst[:n:n], src[:n:n]
	i := checksum.CopyWords(dst, src)
	for ; n-i >= 64; i += 64 {
		a, d := src[i:i+64:i+64], dst[i:i+64:i+64]
		binary.LittleEndian.PutUint64(d[0:], binary.LittleEndian.Uint64(a[0:]))
		binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(a[8:]))
		binary.LittleEndian.PutUint64(d[16:], binary.LittleEndian.Uint64(a[16:]))
		binary.LittleEndian.PutUint64(d[24:], binary.LittleEndian.Uint64(a[24:]))
		binary.LittleEndian.PutUint64(d[32:], binary.LittleEndian.Uint64(a[32:]))
		binary.LittleEndian.PutUint64(d[40:], binary.LittleEndian.Uint64(a[40:]))
		binary.LittleEndian.PutUint64(d[48:], binary.LittleEndian.Uint64(a[48:]))
		binary.LittleEndian.PutUint64(d[56:], binary.LittleEndian.Uint64(a[56:]))
	}
	for ; n-i >= 8; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:i+8:i+8], binary.LittleEndian.Uint64(src[i:i+8:i+8]))
	}
	for ; i < n; i++ {
		dst[i] = src[i]
	}
	return n
}

// XORWords XOR-accumulates src into dst (dst[i] ^= src[i]) with the
// same 8-byte-word, eight-way-unrolled loop discipline as WordCopy. It
// is the FEC parity manipulation: the sender accumulates each data
// fragment into the group's parity buffer, and the receiver repairs a
// lost fragment by accumulating the survivors into the parity. It
// processes min(len(dst), len(src)) bytes and returns the count.
func XORWords(dst, src []byte) int {
	n := min(len(dst), len(src))
	dst, src = dst[:n:n], src[:n:n]
	i := 0
	for ; n-i >= 64; i += 64 {
		a, d := src[i:i+64:i+64], dst[i:i+64:i+64]
		binary.LittleEndian.PutUint64(d[0:], binary.LittleEndian.Uint64(d[0:])^binary.LittleEndian.Uint64(a[0:]))
		binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(d[8:])^binary.LittleEndian.Uint64(a[8:]))
		binary.LittleEndian.PutUint64(d[16:], binary.LittleEndian.Uint64(d[16:])^binary.LittleEndian.Uint64(a[16:]))
		binary.LittleEndian.PutUint64(d[24:], binary.LittleEndian.Uint64(d[24:])^binary.LittleEndian.Uint64(a[24:]))
		binary.LittleEndian.PutUint64(d[32:], binary.LittleEndian.Uint64(d[32:])^binary.LittleEndian.Uint64(a[32:]))
		binary.LittleEndian.PutUint64(d[40:], binary.LittleEndian.Uint64(d[40:])^binary.LittleEndian.Uint64(a[40:]))
		binary.LittleEndian.PutUint64(d[48:], binary.LittleEndian.Uint64(d[48:])^binary.LittleEndian.Uint64(a[48:]))
		binary.LittleEndian.PutUint64(d[56:], binary.LittleEndian.Uint64(d[56:])^binary.LittleEndian.Uint64(a[56:]))
	}
	for ; n-i >= 8; i += 8 {
		d := dst[i : i+8 : i+8]
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)^binary.LittleEndian.Uint64(src[i:i+8:i+8]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
	return n
}

// SeparateCopyThenChecksum performs the two manipulations as distinct
// full passes — copy all of src to dst, then checksum dst — the way a
// layered implementation does when the functions live in different
// layers (§4: "if they were done separately"). It returns the Internet
// checksum of the data. len(dst) must be >= len(src).
func SeparateCopyThenChecksum(dst, src []byte) uint16 {
	WordCopy(dst, src)
	return ^checksum.Fold(checksum.Accumulate(0, dst[:len(src)]))
}

// FusedCopySum copies src into dst and returns the (unfolded,
// uncomplemented) one's-complement partial sum of src in network order.
// Partial sums of fragments that start at even offsets may simply be
// added together and folded once — which is how the ALF receiver
// checksums an ADU incrementally as its fragments arrive out of order,
// fused with the copy into the reassembly buffer (stage one of the
// paper's two-stage receive processing). FinishSum of it is §4's fused
// copy+checksum in one pass. len(dst) must be >= len(src).
func FusedCopySum(dst, src []byte) uint64 {
	n := len(src)
	dst, src = dst[:n:n], src[:n:n]
	acc, i := checksum.CopySumWords(dst, src)
	for ; n-i >= 64; i += 64 {
		a, d := src[i:i+64:i+64], dst[i:i+64:i+64]
		w0, w1 := binary.LittleEndian.Uint64(a[0:]), binary.LittleEndian.Uint64(a[8:])
		w2, w3 := binary.LittleEndian.Uint64(a[16:]), binary.LittleEndian.Uint64(a[24:])
		w4, w5 := binary.LittleEndian.Uint64(a[32:]), binary.LittleEndian.Uint64(a[40:])
		w6, w7 := binary.LittleEndian.Uint64(a[48:]), binary.LittleEndian.Uint64(a[56:])
		binary.LittleEndian.PutUint64(d[0:], w0)
		binary.LittleEndian.PutUint64(d[8:], w1)
		binary.LittleEndian.PutUint64(d[16:], w2)
		binary.LittleEndian.PutUint64(d[24:], w3)
		binary.LittleEndian.PutUint64(d[32:], w4)
		binary.LittleEndian.PutUint64(d[40:], w5)
		binary.LittleEndian.PutUint64(d[48:], w6)
		binary.LittleEndian.PutUint64(d[56:], w7)
		acc = acc.Add4(w0, w1, w2, w3)
		acc = acc.Add4(w4, w5, w6, w7)
	}
	for ; n-i >= 8; i += 8 {
		w := binary.LittleEndian.Uint64(src[i : i+8 : i+8])
		binary.LittleEndian.PutUint64(dst[i:i+8:i+8], w)
		acc = acc.Add(w)
	}
	sum := acc.Sum()
	if i < n {
		copy(dst[i:], src[i:n])
		sum = checksum.Accumulate(sum, src[i:n])
	}
	return sum
}

// FusedDecryptCopySum decrypts src with the position-addressable
// keystream (key, byte offset off — multiple of 8), stores the
// plaintext into dst, and returns the partial one's-complement sum of
// the plaintext, all in one pass. This is the fully integrated ALF
// stage-one kernel: extraction, decryption, and error-detection
// accumulation fused per fragment, at any fragment offset.
func FusedDecryptCopySum(dst, src []byte, key uint64, off int) uint64 {
	if off%8 != 0 {
		panic("ilp: FusedDecryptCopySum offset must be 8-byte aligned")
	}
	return scrambleCopySum(dst, src, key, uint64(off/8), false)
}

// FusedEncryptCopySum is the sender-side mirror of FusedDecryptCopySum:
// it reads plaintext from src, accumulates the plaintext's partial
// one's-complement sum, and stores the encrypted bytes into dst, in one
// pass. off is the byte offset within the keystream (multiple of 8).
func FusedEncryptCopySum(dst, src []byte, key uint64, off int) uint64 {
	if off%8 != 0 {
		panic("ilp: FusedEncryptCopySum offset must be 8-byte aligned")
	}
	return scrambleCopySum(dst, src, key, uint64(off/8), true)
}

// scrambleCopySum is both scramble-suite kernels. Either way dst gets
// src XOR the keystream from word idx on; what differs is which side is
// the plaintext, and the checksum covers the plaintext: src when
// encrypting, dst when decrypting. unkey is the keystream's share of the
// summed word — none of it, or all of it.
func scrambleCopySum(dst, src []byte, key, idx uint64, encrypt bool) uint64 {
	unkey := ^uint64(0)
	if encrypt {
		unkey = 0
	}
	var acc checksum.Wide
	n := len(src)
	dst, src = dst[:n:n], src[:n:n]
	i := 0
	for ; n-i >= 64; i, idx = i+64, idx+8 {
		a, d := src[i:i+64:i+64], dst[i:i+64:i+64]
		k0, k1 := scramble.WordAt(key, idx), scramble.WordAt(key, idx+1)
		k2, k3 := scramble.WordAt(key, idx+2), scramble.WordAt(key, idx+3)
		k4, k5 := scramble.WordAt(key, idx+4), scramble.WordAt(key, idx+5)
		k6, k7 := scramble.WordAt(key, idx+6), scramble.WordAt(key, idx+7)
		w0, w1 := binary.LittleEndian.Uint64(a[0:]), binary.LittleEndian.Uint64(a[8:])
		w2, w3 := binary.LittleEndian.Uint64(a[16:]), binary.LittleEndian.Uint64(a[24:])
		w4, w5 := binary.LittleEndian.Uint64(a[32:]), binary.LittleEndian.Uint64(a[40:])
		w6, w7 := binary.LittleEndian.Uint64(a[48:]), binary.LittleEndian.Uint64(a[56:])
		binary.LittleEndian.PutUint64(d[0:], w0^k0)
		binary.LittleEndian.PutUint64(d[8:], w1^k1)
		binary.LittleEndian.PutUint64(d[16:], w2^k2)
		binary.LittleEndian.PutUint64(d[24:], w3^k3)
		binary.LittleEndian.PutUint64(d[32:], w4^k4)
		binary.LittleEndian.PutUint64(d[40:], w5^k5)
		binary.LittleEndian.PutUint64(d[48:], w6^k6)
		binary.LittleEndian.PutUint64(d[56:], w7^k7)
		acc = acc.Add4(w0^k0&unkey, w1^k1&unkey, w2^k2&unkey, w3^k3&unkey)
		acc = acc.Add4(w4^k4&unkey, w5^k5&unkey, w6^k6&unkey, w7^k7&unkey)
	}
	for ; n-i >= 8; i, idx = i+8, idx+1 {
		w, k := binary.LittleEndian.Uint64(src[i:i+8:i+8]), scramble.WordAt(key, idx)
		binary.LittleEndian.PutUint64(dst[i:i+8:i+8], w^k)
		acc = acc.Add(w ^ k&unkey)
	}
	sum := acc.Sum()
	if i < n {
		if encrypt {
			sum = checksum.Accumulate(sum, src[i:n])
		}
		k := scramble.WordAt(key, idx)
		for j := i; j < n; j++ {
			dst[j] = src[j] ^ byte(k)
			k >>= 8
		}
		if !encrypt {
			sum = checksum.Accumulate(sum, dst[i:n])
		}
	}
	return sum
}

// FinishSum folds combined partial sums into the final Internet
// checksum value.
func FinishSum(sum uint64) uint16 { return ^checksum.Fold(sum) }

// EncodeBERInt32sChecksum encodes vs as BER and computes the Internet
// checksum of the encoded bytes in the same loop, while each element's
// encoding is still in cache — the paper's "converted and checksummed in
// one step" (28 Mb/s -> 24 Mb/s result). It returns the extended buffer
// and the checksum over the appended region.
func EncodeBERInt32sChecksum(dst []byte, vs []int32) ([]byte, uint16) {
	start := len(dst)
	content := 0
	for _, v := range vs {
		content += xcode.BERIntSize(int64(v))
	}
	dst = xcode.AppendBERHeader(dst, xcode.TagSequence, content)
	var sum uint64
	odd := false
	// Checksum the sequence header first.
	sum, odd = accumulateOdd(sum, odd, dst[start:])
	for _, v := range vs {
		before := len(dst)
		dst = xcode.AppendBERInt(dst, int64(v))
		sum, odd = accumulateOdd(sum, odd, dst[before:])
	}
	return dst, ^checksum.Fold(sum)
}

// accumulateOdd extends a one's-complement sum over a byte stream that
// may be split at odd offsets: odd records whether the previous chunk
// ended mid-word.
func accumulateOdd(sum uint64, odd bool, chunk []byte) (uint64, bool) {
	if len(chunk) == 0 {
		return sum, odd
	}
	newOdd := odd != (len(chunk)%2 == 1)
	if odd {
		// The pending high byte was already added as byte<<8; this byte
		// is the low half of that word.
		sum += uint64(chunk[0])
		chunk = chunk[1:]
	}
	sum = checksum.Accumulate(sum, chunk)
	return sum, newOdd
}

// DecodeBERInt32sInto decodes a BER SEQUENCE OF INTEGER into the
// caller's array — presentation conversion fused with the move into
// application address space. It returns the number of integers decoded
// and the bytes consumed. An element outside int32, or more elements
// than out holds, is an error wrapping xcode.ErrOverflow.
func DecodeBERInt32sInto(src []byte, out []int32) (int, int, error) {
	tag, length, hdr, err := xcode.ParseBERHeader(src)
	if err != nil {
		return 0, 0, err
	}
	if tag != xcode.TagSequence {
		return 0, 0, xcode.ErrBadTag
	}
	if len(src) < hdr+length {
		return 0, 0, xcode.ErrTruncated
	}
	content := src[hdr : hdr+length]
	n := 0
	for off := 0; off < len(content); {
		v, used, err := xcode.ParseBERInt(content[off:])
		if err != nil {
			return n, 0, err
		}
		if v < math.MinInt32 || v > math.MaxInt32 {
			return n, 0, fmt.Errorf("%w: element %d is %d, not an int32", xcode.ErrOverflow, n, v)
		}
		if n >= len(out) {
			return n, 0, xcode.ErrOverflow
		}
		out[n] = int32(v)
		n++
		off += used
	}
	return n, hdr + length, nil
}
